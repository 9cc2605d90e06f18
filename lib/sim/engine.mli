(** Deterministic virtual-time multicore engine.

    Each simulated worker (core) runs as an OCaml-5 fiber. Workers advance a
    private virtual clock by performing {!advance}; the engine always resumes
    the runnable fiber with the smallest clock, so all shared-state mutations
    happen in virtual-time order and a run is a pure function of its inputs.

    Besides workers, the engine supports timed callbacks ({!schedule_at},
    {!every}); the heartbeat interrupt sources are built on them. The
    machine's shared memory bus is engine state too ({!charge}).

    The heap, the dispatch step and the bus share this one compilation
    unit on purpose: the dev profile builds with [-opaque], so a call
    from here into another module could not be inlined. *)

module Event_queue : sig
  (** The engine's event queue: a binary min-heap of unboxed
      (virtual time, seq, code) events.

      Pops come out in strictly increasing (time, seq) order. An event is
      two ints in two flat arrays that double when full: its time, and a
      tag [seq lsl 20 lor code], so the tag order is the seq order. Push,
      pop and {!replace_top} allocate nothing once the arrays have grown. *)

  type t

  val create : unit -> t

  val is_empty : t -> bool

  val length : t -> int
  (** Number of queued events. *)

  val push : t -> time:int -> seq:int -> code:int -> unit
  (** Enqueue. [seq] must be globally unique; pops tie-break equal times
      by it, FIFO when the pusher's stamps are monotone. Asserts
      [0 <= code < 2^20] and [0 <= seq < 2^42], the bounds of the tag
      layout. *)

  val top_time : t -> int
  (** Virtual time of the earliest queued event. Undefined when empty —
      callers check {!is_empty} first. *)

  val top_seq : t -> int
  (** Seq stamp of the earliest queued event. Undefined when empty. *)

  val top_code : t -> int
  (** Payload code of the earliest queued event. Undefined when empty. *)

  val drop : t -> unit
  (** Remove the earliest queued event (the one {!top_time}/{!top_code}
      describe). Undefined when empty. *)

  val replace_top : t -> time:int -> seq:int -> code:int -> unit
  (** [replace_top q ~time ~seq ~code] is {!drop} then {!push}, in one
      sift-down from the root. When (time, seq) is not earlier than the
      top's, it is also {!push} then {!drop}: the engine's worker handoff
      pushes the yielding worker's resume and pops the next event this
      way. Same bounds on [code] and [seq] as {!push}. Undefined when
      empty. *)
end

type t

exception Deadlock of string
(** Raised when live workers are all parked and no event can wake them. The
    message carries a per-worker state snapshot (clock, parked/runnable/
    finished, plus the {!set_diagnostics} hook's output) for diagnosis. *)

exception Budget_exceeded of { budget : int; time : int }
(** Raised from {!run} when the next event's virtual time passes the
    {!set_budget} cap: the structured abort for fault-induced livelocks that
    keep generating events instead of finishing. *)

exception Guard_stop of string
(** Raised from {!run} when the {!set_guard} hook requests an abort (e.g. a
    wall-clock deadline), carrying the hook's reason. *)

val create : ?seed:int -> ?bus_bytes_per_cycle:float -> num_workers:int -> unit -> t
(** [bus_bytes_per_cycle] sizes the shared memory bus {!charge} books
    traffic on (default: {!Cost_model.default}'s [dram_bytes_per_cycle]).
    It must be positive. *)

val set_budget : t -> int -> unit
(** Arm the virtual-cycle watchdog: any event dispatched past this virtual
    time aborts the run with {!Budget_exceeded}. Unlike a scheduled
    callback, the check also fires when the heap only contains
    self-rescheduling callbacks. *)

val set_guard : t -> ?every:int -> (unit -> string option) -> unit
(** Install an external abort hook, polled every [every] (default 4096)
    event dispatches; returning [Some reason] aborts the run with
    {!Guard_stop}. Used for wall-clock trial deadlines. *)

val num_workers : t -> int

val rng : t -> Sim_rng.t
(** Engine-level RNG (steal victim selection); deterministic per seed. *)

val set_diagnostics : t -> (int -> string) -> unit
(** Install a per-worker annotation hook (e.g. deque depth) appended to
    each worker's line in {!Deadlock} snapshots. *)

val worker_id : t -> int
(** Id of the currently running worker; [-1] inside a timed callback. *)

val now : t -> int
(** Virtual time of the running worker (or of the callback being run). *)

val clock_of : t -> int -> int
(** Virtual clock of an arbitrary worker. *)

val advance : t -> int -> unit
(** [advance t c] consumes [c] cycles on the current worker, yielding to any
    worker or callback whose virtual time is earlier. When nothing queued
    is due at or before the new clock and no budget or guard boundary
    falls there, the worker runs on without a context switch; the step
    still counts as one dispatch in {!events_processed}. Must be called
    from worker context. *)

val charge : t -> compute:int -> bytes:int -> int
(** [charge t ~compute ~bytes] books [bytes] of memory traffic on the
    shared bus from the current worker's clock, then {!advance}s it by
    the cycles it occupies: [compute] overlapped with the traffic's
    service time, queued behind traffic already booked. Returns those
    cycles, never less than [compute]; the excess is a bandwidth stall.
    With [bytes <= 0] this is [advance t compute] (no advance at 0).
    Irregular kernels like spmv are bandwidth-bound on real multicores:
    the paper's 64-core spmv speedups saturate far below the core count.
    Must be called from worker context. *)

val park : t -> unit
(** Block the current worker until {!unpark} or {!unpark_all}. Its clock
    jumps to the waking time. *)

val is_parked : t -> int -> bool

val unpark : t -> int -> unit
(** Wake worker [w] (no-op if it is not parked) at the caller's time. *)

val unpark_all : t -> unit

val schedule_at : t -> time:int -> (unit -> unit) -> unit
(** Run a callback at an absolute virtual time (engine context). Events
    at one time fire in the order they were queued. An exception the
    callback raises ends {!run} with it, so a callback queued before
    any other event is a stop at its time: it fires after every event
    earlier than that time and before any event at or past it. Its own
    dispatch counts in {!events_processed} and meets the {!set_budget}
    and {!set_guard} checks as any event's does. *)

val every : t -> start:int -> interval:int -> (unit -> unit) -> unit -> unit
(** [every t ~start ~interval f] runs [f] at [start], [start+interval], ...
    Returns a cancellation function. Recurring callbacks do not keep the
    engine alive once all workers finished. *)

val run : t -> (int -> unit) -> unit
(** [run t main] starts [num_workers] fibers, worker [w] executing [main w]
    from virtual time 0, and processes events until all workers finish.

    Events fire in (time, seq) order. A yielding worker's handler resumes
    the next worker itself, as a tail call, so the OCaml stack does not
    grow with the number of events. An exception raised by a worker body
    or a timed callback leaves [run] unchanged, as do {!Deadlock},
    {!Budget_exceeded} and {!Guard_stop}; the engine is not continuable
    after one.
    @raise Deadlock if all unfinished workers are parked with nothing
    scheduled to wake them. *)

val max_time : t -> int
(** Largest virtual clock reached across workers (the makespan after
    {!run} returns). *)

val events_processed : t -> int
(** Total events (resumes and callbacks) dispatched so far: a deterministic
    load figure for the perf-gate's engine probe. *)
