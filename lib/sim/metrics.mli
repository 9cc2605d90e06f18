(** Scalar counters collected during a simulated run.

    One [Metrics.t] is attached to each run; the experiment harness reads
    it to build the paper's figures (promotion nesting levels for Fig. 5,
    heartbeat detection rates for Fig. 13, overhead component attribution
    for Figs. 7 and 8).

    Since the trace redesign, [Metrics] holds {e only} counters. Every
    discrete runtime occurrence (a promotion, a steal, a detected
    heartbeat, an injected fault, ...) is emitted exactly once as an
    {!Obs.Trace.event}; the run wires an always-on {!counting_sink} that
    derives these counters from that stream. Event {e logs} — chunk-size
    evolution, execution timelines, downgrade schedules — live in the
    captured trace ({!Run_result.t.trace}) and are queried through
    [Obs.Trace_query]. *)

(** What a charged overhead cycle paid for (Figs. 7 and 8 split the
    overhead by these). Constructors are in name order. *)
type kind =
  | Chunk_transfer
      (** ["chunk-transfer"]: carrying the residual chunk counter across leaf loops *)
  | Chunking  (** ["chunking"]: the chunk-size countdown of a leaf batch *)
  | Closure  (** ["closure"]: loading a loop slice's LST context at entry *)
  | Fault_stall  (** ["fault-stall"]: an injected OS-preemption stall *)
  | Idle_backoff  (** ["idle-backoff"]: backoff after a dry steal round under faults *)
  | Interrupt  (** ["interrupt"]: interrupt or signal delivery plus rollforward *)
  | Join  (** ["join"]: a join's deque pop or slow path *)
  | Lst_store  (** ["lst-store"]: a parent storing a child's iteration space *)
  | Membus  (** ["membus"]: waiting for shared DRAM bandwidth *)
  | Omp_contention  (** ["omp-contention"]: waiting on an OpenMP runtime lock or counter *)
  | Omp_dispatch  (** ["omp-dispatch"]: one dynamic or guided chunk grab *)
  | Omp_fork  (** ["omp-fork"]: starting a parallel region or nested team *)
  | Omp_join  (** ["omp-join"]: a region's closing barrier *)
  | Omp_reduce  (** ["omp-reduce"]: combining a region's reduction *)
  | Omp_setup  (** ["omp-setup"]: a static schedule's per-thread setup *)
  | Omp_spawn  (** ["omp-spawn"]: spawning a nested team's tasks *)
  | Outline_call  (** ["outline-call"]: calling an outlined loop slice *)
  | Poll  (** ["poll"]: a heartbeat poll *)
  | Promotion  (** ["promotion"]: the promotion handler and task push *)
  | Promotion_branch  (** ["promotion-branch"]: the promotion-ready guard branch *)
  | Reduction  (** ["reduction"]: combining a promoted reduction's halves *)
  | Steal  (** ["steal"]: steal attempts and successful steals *)

val kinds : kind list
(** Every kind, in name order. *)

val kind_name : kind -> string
(** The kind's name in reports and the experiment journal. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [None] for a name no kind has. *)

val kind_index : kind -> int
(** The kind's slot in [overhead_by_kind]: its position in {!kinds}. A
    hot charging path reads the slots once and attributes by slot. *)

type t = {
  mutable heartbeats_generated : int;
  mutable heartbeats_detected : int;
  mutable heartbeats_missed : int;
  mutable polls : int;
  mutable promotions : int;
  promotions_by_level : int array;  (** indexed by nesting level, up to 8 *)
  mutable tasks_spawned : int;
  mutable leftover_tasks_run : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable join_slow_paths : int;
  mutable chunk_updates : int;
  mutable work_cycles : int;  (** useful (baseline) body cycles *)
  mutable overhead_cycles : int;  (** everything that is not body work *)
  overhead_by_kind : int array;
      (** cycles per {!kind}; read through {!overhead_of} and {!attribution} *)
  mutable faults_beats_dropped : int;
      (** injected heartbeat-delivery losses ({!Fault_injector}) *)
  mutable faults_beats_delayed : int;  (** injected delivery-jitter events *)
  mutable faults_steals_failed : int;  (** injected steal-attempt failures *)
  mutable faults_stalls : int;  (** injected per-worker stall windows *)
  mutable faults_stall_cycles : int;  (** total cycles lost to stalls *)
  mutable faults_wakeups_delayed : int;
      (** injected parked-worker wakeup suppressions (domains backend) *)
  mutable downgrades : int;
      (** watchdog fallbacks from an interrupt mechanism to software
          polling; the per-worker schedule is in the trace *)
}

val create : unit -> t

val add_overhead : t -> kind -> int -> unit
(** Bump both the per-kind attribution and the overhead total. Cycle
    attribution is not a discrete event, so it stays a direct call; it
    hashes nothing and allocates nothing. *)

val promotion_at_level : t -> int -> unit

val overhead_of : t -> kind -> int

val attribution : t -> (string * int) list
(** (kind name, cycles) for every kind with a nonzero total, sorted by
    name: what reports print and the experiment journal stores. *)

val restore_overhead : t -> string -> int -> unit
(** Set one kind's cycles by its {!kind_name}, leaving the total alone;
    unknown names are ignored (journal forward-compatibility). *)

val promotion_share_by_level : t -> float array
(** Percentage of promotions per nesting level (sums to 100 when any). *)

val detection_rate : t -> float
(** Detected heartbeats as a percentage of generated ones (100.0 if none
    were generated). *)

val downgrade_count : t -> int

val faults_injected : t -> int
(** Total injected fault events (drops + delays + steal failures + stalls). *)

val count_event : t -> Obs.Trace.event -> unit
(** Apply one event to the counters; {!counting_sink} per event. *)

val counting_sink : t -> Obs.Trace.Sink.t
(** The always-on sink every run tees with the caller's: it folds the
    event stream into these counters and stores nothing. *)

val counters : t -> (string * int) list
(** Every scalar counter as (name, value), for the experiment journal. The
    non-scalar state (per-level promotions, overhead attribution) is
    serialized separately by the checkpoint layer. *)

val restore_counter : t -> string -> int -> unit
(** Set one scalar counter by its {!counters} name; unknown names are
    ignored (journal forward-compatibility). *)
