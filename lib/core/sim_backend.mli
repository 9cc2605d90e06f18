(** The deterministic virtual-time simulator as a scheduler backend
    ({!Sched.Backend_intf.BACKEND}).

    Worker identity and time come from {!Sim.Engine}; deques are
    {!Sim.Deque}; overhead charges advance the engine clock with per-kind
    metrics attribution; idling is engine parking behind the fault-aware
    exponential backoff. Body work and memory traffic are charged here
    too ({!add_work}, {!advance_mixed}, {!charge_batch}), so the loop
    interpreter and {!Fork_join} share the engine's memory bus and one
    charging path. The engine
    is single-fibered, so [critical] is a plain call and
    [Sched.Core.Make (Sim_backend)] reproduces the pre-functor executor
    byte for byte (pinned by golden tests). {!create} and {!supervise}
    are the one envelope every simulated run is built and capped by. *)

type t = {
  eng : Sim.Engine.t;
  cost : Sim.Cost_model.t;
  metrics : Sim.Metrics.t;
  trace : Obs.Trace.Sink.t;  (** counting sink teed with the observer *)
  capture : bool;  (** the observer wants events *)
  inj : Sim.Fault_injector.t;
  hb : Heartbeat.t;
  polling : bool;
      (** the run's mechanism is software polling, which no watchdog
          downgrade changes, so every poll costs [cost]'s [poll_cost] *)
  transfer_cost : int;
      (** cycles a chunked leaf batch pays to carry the residual chunk
          counter: [cost]'s [chunk_transfer_cost] under
          [chunk_transferring], else 0 *)
  deques : Sched.Task.t Sim.Deque.t array;
  steal_fails : int array;
  bug : Interp.seeded_bug option;
      (** only [Lose_stolen_task] is planted here ({!keep_stolen}); the
          interpreter plants the others *)
  mutable bug_fired : bool;
}

val create :
  Rt_config.t -> Run_request.t -> observer:Obs.Trace.Sink.t -> bug:Interp.seeded_bug option -> t
(** The machine for one run of [cfg]: engine (with its memory bus sized
    from [cfg]'s cost model), metrics, the counting sink teed with
    [observer] (the request's sink, gated on resume), the request's fault
    injector and the heartbeat. [capture] is whether [observer] is
    enabled, which is whether the request's own sink is. *)

val supervise :
  Sim.Engine.t ->
  Sim.Metrics.t ->
  Run_request.t ->
  fingerprint:(unit -> float) ->
  (unit -> Sim.Run_result.termination) ->
  Sim.Run_result.t
(** [supervise eng metrics request ~fingerprint body] arms the request's
    DNF cap (the earlier of [max_cycles] and [deadline]), [cycle_budget]
    and [guard] on [eng], then runs [body], which drives the engine and
    says how the run ended. A fired cap ends it as [Dnf], the budget as
    [Budget_exceeded], the guard as [Guard_aborted]. *)

(** {2 BACKEND implementation} *)

val num_workers : t -> int

val worker_id : t -> int

val now : t -> int

val capture : t -> bool

val critical : t -> (unit -> unit) -> unit

val emit : t -> Obs.Trace.event -> unit
(** With [capture], the event goes through the tee, stamped with the
    engine's time and worker. Without, it is counted straight into
    [metrics] ({!Sim.Metrics.count_event}), as the counting sink would. *)

val push : t -> Sched.Task.t -> unit

val pop : t -> Sched.Task.t option

val steal_from : t -> victim:int -> Sched.Task.t option

val deque_empty : t -> worker:int -> bool

val random_victim : t -> int

val steal_vetoed : t -> bool

val keep_stolen : t -> Sched.Task.t -> bool

val pre_task : t -> unit

val on_task_claim : t -> unit

val wake_one : t -> unit

val unpark : t -> worker:int -> unit

val idle : t -> until:int Atomic.t -> unit

val set_busy : t -> worker:int -> busy:bool -> unit

val charge_push : t -> unit

val charge_pop : t -> unit

val charge_steal_attempt : t -> unit

val charge_steal_success : t -> unit

val charge_join_slow : t -> unit

val charge_overhead : Sim.Engine.t -> Sim.Metrics.t -> Sim.Metrics.kind -> int -> unit
(** {!overhead} over an engine and its metrics alone: the one charging
    path, shared with the OpenMP baseline. *)

val charge_work : Sim.Engine.t -> Sim.Metrics.t -> int -> unit
(** {!add_work} over an engine and its metrics alone. *)

val charge_mixed : Sim.Engine.t -> Sim.Metrics.t -> work:int -> overhead:int -> bytes:int -> unit
(** {!advance_mixed} over an engine and its metrics alone. *)

val overhead : t -> Sim.Metrics.kind -> int -> unit
(** Charge overhead cycles: one engine advance, per-kind attribution
    (shared with the executor's interpreter hooks). *)

val add_work : t -> int -> unit
(** Charge cycles of body work: one engine advance, counted as work. *)

val advance_mixed : t -> work:int -> overhead:int -> bytes:int -> unit
(** Body work plus [overhead] cycles in a single engine advance, with
    [bytes] of memory traffic served by the engine's bus
    ({!Sim.Engine.charge}); time past the compute cost is attributed to
    [Membus]. The caller attributes [overhead] to its kinds with
    {!Sim.Metrics.add_overhead} after the call, so a charge builds no
    list and allocates nothing. *)

(** {2 The loop interpreter's charges}

    Each makes one call into lib/sim and attributes its kinds by slot. *)

val charge_batch : t -> worker:int -> work:int -> bytes:int -> chunked:bool -> polled:bool -> unit
(** One leaf batch on [worker]: body work and memory traffic, the poll
    ([cost]'s [poll_cost] under software polling, else
    {!Heartbeat.poll_cost}) and promotion branch when the batch ended in
    a poll or is not chunked, and the chunk countdown (2 cycles, kind
    [Chunking]) plus [transfer_cost] ([Chunk_transfer]) when chunked. *)

val charge_slice_entry : t -> unit
(** A loop-slice call: the outlined call plus the closure load. *)

val charge_latch : t -> bytes:int -> unit
(** A non-leaf DOALL latch: the promotion branch plus [bytes] of
    traffic. *)
