(** Seed-deterministic fault scheduler over a {!Fault_plan}.

    The runtime consults the injector at its failure-prone points (heartbeat
    delivery, steal attempts, scheduling-loop iterations) and the injector
    answers from per-worker splitmix streams derived from the plan's seed:
    identical plans yield identical fault schedules, independent of wall
    time. Injection decisions are emitted as {!Obs.Trace.Fault_injected}
    events into the run's trace sink (stamped via [now]); the run's
    counting sink derives the [faults_*] counters from them. The caller
    models their consequences (missed beats, wasted cycles).

    An injector built from {!Fault_plan.none} (or any plan for which
    {!Fault_plan.is_zero} holds) is {e inert}: every query returns the
    neutral answer without consuming randomness or emitting events, so a
    zero-fault run is bit-identical to one without the fault layer. *)

type t

val create :
  Fault_plan.t ->
  num_workers:int ->
  ?trace:Obs.Trace.Sink.t ->
  ?now:(unit -> int) ->
  unit ->
  t
(** [now] supplies the virtual-time stamp for emitted fault events
    (typically [Engine.now]); it is never called by an inert injector. *)

val inactive : num_workers:int -> t
(** [create Fault_plan.none]. *)

val active : t -> bool
(** False iff the plan is zero; callers gate fault-only behaviour (watchdog,
    steal backoff) on this so the layer stays strictly opt-in. *)

val plan : t -> Fault_plan.t

val drop_beat : t -> worker:int -> bool
(** Should this heartbeat delivery to [worker] be lost? *)

val delivery_jitter : t -> worker:int -> int
(** Extra delivery delay in cycles for a non-dropped beat (0 when the plan
    has no jitter). *)

val steal_fails : t -> worker:int -> bool
(** Should [worker]'s next steal attempt fail as if the CAS lost? Once
    triggered, the failure persists for [steal_fail_burst] consecutive
    attempts by that worker, modelling a contention burst. *)

val stall_cycles : t -> worker:int -> int
(** Cycles of injected OS-preemption stall at a scheduling point (0 most of
    the time). Simulator-side stall duration; draws only when the plan has
    [stall_prob > 0]. *)

val stall_polls : t -> worker:int -> int
(** Counted polls of injected stall at a heartbeat-poll boundary (0 most of
    the time). Domains-backend stall duration; draws only when the plan has
    both [stall_prob > 0] and [stall_polls > 0], so sim and native stalls
    consume disjoint plan knobs. *)

val delay_wakeup : t -> worker:int -> bool
(** Should this parked-worker wakeup signal be suppressed? (The backend
    then owes it, and re-issues it at the next wake, idle worker or
    shutdown.) *)

val backoff_jitter : t -> worker:int -> limit:int -> int
(** Uniform jitter in [\[0, limit)] for the executor's steal backoff; 0 when
    the injector is inert or [limit <= 0]. *)
