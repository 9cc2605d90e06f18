(** Heartbeat signaling mechanisms (Secs. 4 and 5).

    The executor consults this module at every promotion-ready program
    point. Mechanisms differ in cost and in how a beat becomes visible:

    - {e Software polling}: a poll (TSC read, {!poll_cost} cycles, charged by
      the caller as part of its batched advance) compares the worker's clock
      against its next heartbeat-interval boundary, which {!set_busy} and
      the watchdog's downgrade reset; it divides only when a beat is due.
    - {e Kernel module}: the executed image carries no polls; a broadcast
      timer callback marks every busy worker and {!consume} charges the
      interrupt delivery cost (3800 cycles) plus a rollforward-table lookup
      when a pending beat is taken.
    - {e Ping thread}: like the kernel module, but deliveries are serialized
      through one signaling thread; beats whose signal cannot be issued
      before the next beat are dropped — the source of the up-to-45%%-missed
      heartbeats the paper reports.

    Under an active {!Sim.Fault_injector}, interrupt deliveries can
    additionally be lost or jittered, and a {e starvation watchdog} is
    armed: a busy worker that misses [watchdog_k] consecutive beats (lost,
    jittered into each other, or overwritten unconsumed) is downgraded to
    software polling for the rest of the run — it leaves the interrupt pool,
    pays poll costs at its PRPPTs, and the downgrade is emitted as an
    {!Obs.Trace.Mechanism_downgrade} event. Without fault injection the
    watchdog is disarmed, so fault-free runs are bit-identical to the
    pre-fault-layer runtime.

    Every generated/detected/missed beat, poll, and downgrade is emitted
    as one {!Obs.Trace.event} into the run's sink; the counting sink
    derives the Fig. 13 counters from them. *)

type t

val create :
  ?injector:Sim.Fault_injector.t ->
  ?observer:Obs.Trace.Sink.t ->
  Rt_config.t ->
  Sim.Engine.t ->
  Sim.Metrics.t ->
  t
(** Without [?injector], an inert one is used (no faults, no watchdog).
    Events are counted into [metrics]; when [?observer] (default
    {!Obs.Trace.Sink.null}) is enabled they also reach it, stamped with
    the engine's time, through a tee with [metrics]' counting sink. *)

val start : t -> unit
(** Arm the timer callbacks (no-op for software polling). *)

val stop : t -> unit

val set_busy : t -> worker:int -> bool -> unit
(** Only busy workers receive or account for heartbeats. *)

val is_downgraded : t -> worker:int -> bool
(** Has the watchdog moved this worker to software polling? *)

val poll_cost : t -> worker:int -> int
(** Cycles a PRPPT poll costs for this worker (0 under interrupts, the
    polling cost once the watchdog has downgraded it). *)

val consume : t -> worker:int -> count_poll:bool -> bool
(** Check (and consume) a heartbeat at a PRPPT. [count_poll] marks the call
    as a real leaf-latch poll for the polling statistics; the cached checks
    at outer-loop latches pass [false]. Charges the interrupt delivery cost
    when an interrupt-mode beat is taken; never charges the poll cost (the
    caller batches it via {!poll_cost}). *)
