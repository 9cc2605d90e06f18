(** Native heartbeat delivery: the one place a poll on real domains
    decides whether it observed a beat. {!Native_run} and {!Hb_par} both
    poll through {!consume}.

    Per worker, a beat state holds the next-beat deadline and pending
    flag or the poll count, a progress counter bumped on every poll, and
    — when an active {!Sim.Fault_injector} is attached — the portable
    chaos draws (dropped beats, poll-counted stall windows) and watchdog
    rung 1: a worker whose beats are suppressed [watchdog_k] times in a
    row downgrades to polling fallback, from then on every beat lands,
    and [on_downgrade] is called once. Draws come from the injector's per-worker seeded
    streams, so at one worker under [Every_polls] the whole decision
    sequence repeats exactly. *)

(** When a native worker observes a heartbeat. *)
type source =
  | Wall_us of float
      (** interval timer, microseconds of the monotonic clock (the paper's
          mechanism). Only leaf polls read the clock: a leaf poll that
          sees the deadline pass re-arms it and raises the worker's
          pending flag, and the worker's next check — latch or leaf
          poll — delivers the beat. *)
  | Every_polls of int
      (** deterministic poll-count proxy: a beat every [n] leaf polls on a
          worker. With one worker the schedule is fully reproducible —
          benchgate and the CI smoke use this. *)

type t

val now_ns : unit -> int
(** Monotonic nanoseconds: beats and native makespans never see the
    wall clock step. *)

val create :
  source ->
  workers:int ->
  injector:Sim.Fault_injector.t ->
  watchdog_k:int ->
  on_downgrade:(unit -> unit) ->
  t
(** [Wall_us] deadlines start one interval from now. An inactive
    [injector] disables chaos and the watchdog.
    @raise Invalid_argument for [Every_polls n] with [n < 1] or a
    [Wall_us] period that is not positive and finite. *)

val consume : t -> int -> count_poll:bool -> bool
(** [consume t w ~count_poll]: one heartbeat check on worker [w]; true
    when a beat is delivered. A leaf poll ([count_poll]) counts toward
    [Every_polls] and stall windows and, under [Wall_us], is the only
    check that reads the clock: when the deadline has passed it raises
    [w]'s pending flag and returns false. Any check on [w] that finds
    the flag raised clears it and delivers the beat, so a non-leaf latch
    is a flag read and takes the beat the leaf poll below it saw. The
    chaos draws and watchdog rung 1 act at delivery. Allocation-free. *)

val progress : t -> worker:int -> int
(** [worker]'s count of {!consume} calls: the liveness signal of
    watchdog rung 2. Racy reads from another domain are fine. *)

val on_sample : t -> (unit -> unit) -> unit
(** Call [f] synchronously, from {!consume}, at every 64th leaf poll of
    each worker, in chaos runs only: the sampling point of watchdog
    rung 2. A fault-free run never calls it. *)
