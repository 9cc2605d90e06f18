(** Common result record for every executor (sequential, OpenMP-like, TPAL,
    HBC): the experiment harness computes speedups, overheads, and figure
    rows from these. *)

type termination =
  | Finished  (** the program ran to completion *)
  | Dnf  (** exceeded the virtual-time DNF cap (the paper's did-not-finish) *)
  | Budget_exceeded of { budget : int; at : int }
      (** aborted by the per-trial virtual-cycle watchdog
          ({!Engine.set_budget}): the run was livelocked or pathologically
          slow; partial counters only *)
  | Guard_aborted of string
      (** aborted by an external guard (wall-clock deadline); partial
          counters only *)
  | Paused of Checkpoint_state.t
      (** paused at the request's pause boundary, before any event at or
          past its cycle; the payload is the serializable checkpoint a
          later run can resume from (see {!Checkpoint_state}); partial
          counters, resumable *)

type t = {
  makespan : int;  (** virtual cycles from program start to completion *)
  work_cycles : int;  (** pure body work (equals the sequential baseline) *)
  fingerprint : float;  (** output checksum, compared against sequential *)
  dnf : bool;  (** true when the run exceeded its virtual-time cap *)
  termination : termination;  (** how the run ended (watchdog taxonomy) *)
  metrics : Metrics.t;
  trace : Obs.Trace.record list;
      (** the records captured by the run's trace sink ([] when the run was
          given a non-capturing sink); queried via [Obs.Trace_query] by the
          figure pipeline, the Gantt renderer, and the Perfetto exporter *)
  mutable sanitizer : string option;
      (** one-line sanitizer status ("sanitizer: OK ..." / "sanitizer: N
          violation(s) ..."), filled in by callers that ran the executor
          under an invariant sanitizer; [None] for unsanitized runs.
          Mutable because the sanitizer's verdict (its [finish] checks)
          only exists after the run's record is built. *)
}

val completed : t -> bool
(** True only for {!Finished} runs; budget/guard-aborted runs carry partial
    state and must not contribute speedups. *)

val termination_to_string : termination -> string

val speedup : baseline:t -> t -> float
(** [speedup ~baseline r] is baseline work over [r]'s makespan; 0 for DNF
    and for budget/guard-aborted runs. *)

val overhead_pct : t -> float
(** Overhead of a sequential-with-overheads run against its own pure work,
    in percent. *)

val faults_injected : t -> int
(** Total fault events the run's {!Fault_injector} injected (0 without a
    fault plan). *)

val downgrades : t -> int
(** Watchdog fallbacks from an interrupt mechanism to software polling. *)

val degraded : t -> bool
(** True when at least one worker was downgraded during the run. *)

val fingerprints_close : ?tol:float -> t -> t -> bool
(** Relative comparison (default tolerance 1e-6) — parallel reductions
    reassociate floating-point sums. *)
