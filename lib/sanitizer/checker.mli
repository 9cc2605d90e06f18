(** Online scheduler-invariant sanitizer.

    A sanitizer is an {!Obs.Trace.Sink.t}: tee it with whatever sink a run
    already carries and it checks, record by record and at zero
    virtual-time cost, the correctness properties the paper's scheduler
    argues invariant-by-invariant:

    - {b work conservation} (Algorithms 1–2): every iteration of every
      loop-slice invocation executes exactly once, across promotions,
      steals, leftover tasks, and faults — tracked as interval bookkeeping
      over [Slice_enter]/[Iter_exec] records;
    - {b deque discipline}: owners push/pop at the bottom, thieves steal at
      the top, and no task is executed twice or lost (a shadow Chase–Lev
      deque per worker replays every [Task_*] record);
    - {b promotion policy} (outer-loop-first, Sec. 2): each
      [Promote_choice] must pick the outermost statically-splittable loop
      with remaining iterations (innermost under the ablation policy);
    - {b chunk-transfer consistency} (Sec. 5.1): every [Chunk_decision]
      must match the sliding-window update rule
      [max 1 (round (old * min_polls / target))];
    - {b clock sanity}: record times are monotone and per-worker execution
      intervals are well-formed and non-overlapping.

    Violations are collected (default) or raised immediately ([~strict]),
    each carrying the window of records leading up to the offence. *)

type invariant =
  | Work_conservation
  | Deque_discipline
  | Promotion_policy
  | Chunk_consistency
  | Clock_sanity

val invariant_name : invariant -> string
(** Stable kebab-case name ("work-conservation", ...). *)

type violation = {
  invariant : invariant;
  time : int;  (** virtual time of the offending record (last seen time for end-of-run checks) *)
  worker : int;  (** worker of the offending record; -1 for end-of-run checks *)
  message : string;
  window : Obs.Trace.record list;  (** recent records, oldest first, ending at the offender *)
}

exception Violation of violation
(** Raised from inside the sink in [~strict] mode. *)

type config = {
  policy : Hbc_core.Rt_config.promotion_policy;
      (** the policy the run is configured with; the sanitizer checks
          choices against it (Innermost_first runs are legal, just checked
          in the opposite direction) *)
  ac_target_polls : int;  (** AC target, input of the chunk update rule *)
}

val config_of_rt : Hbc_core.Rt_config.t -> config

type t

val create : ?strict:bool -> ?window:int -> ?max_violations:int -> config -> t
(** [strict] (default false) raises {!Violation} at the first offence
    instead of collecting. [window] (default 32) bounds the record window
    attached to violations; [max_violations] (default 100) bounds how many
    violations are retained (the count keeps growing past it). *)

val sink : t -> Obs.Trace.Sink.t
(** The sanitizer as a sink. Tee it with the run's own sink:
    [Run_request.make ~trace:(Obs.Trace.Sink.tee (Sanitizer.sink s) user_sink) ()].
    The sink captures nothing and never perturbs the run. *)

val finish : t -> unit
(** End-of-run checks: uncovered iteration ranges (work conservation) and
    tasks pushed or stolen but never executed (deque discipline). Call it
    on completed runs — and on deadlocked ones in tests, where the lost
    work is exactly what it should flag. Idempotent. *)

val violations : t -> violation list
(** Retained violations, oldest first. *)

val violation_count : t -> int
(** Total violations observed, including ones past [max_violations]. *)

val ok : t -> bool

val records_seen : t -> int

val summary : t -> string
(** One line: "sanitizer: OK (...)" or "sanitizer: N violation(s) ...",
    suitable for campaign tables and [Run_result]. *)
