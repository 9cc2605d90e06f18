(** Typed runtime trace events and the sink API they are recorded through.

    Every observable scheduler action — heartbeat lifecycle, promotions,
    steals, task spawn/join, adaptive-chunking decisions, injected faults,
    mechanism downgrades, worker execution intervals — is one {!event}
    value, stamped at emission with the worker id and the simulator's
    virtual time. The runtime never stores events itself; it emits them
    into whatever {!Sink.t} the run was given:

    - {!Sink.null} ignores everything and allocates nothing — a run traced
      into it is byte-identical (fingerprint, makespan, counters) to one
      without the trace layer, because emission never advances virtual
      time, consumes randomness, or allocates on the hot path;
    - {!Sink.ring} keeps a bounded per-worker ring buffer, overwriting the
      oldest records at capacity and counting the drops;
    - {!Sink.stream} keeps everything (optionally pre-filtered by [keep]);
    - {!Sink.fn} invokes a closure per event — {!Sim.Metrics} derives its
      scalar counters from exactly such a sink;
    - {!Sink.tee} fans one emission out to two sinks.

    Captured records carry a per-sink sequence number assigned at emission,
    so exports and cross-worker merges are deterministic: the same seed and
    configuration produce the same record list, byte for byte. *)

type fault =
  | Beat_dropped  (** an injected heartbeat-delivery loss *)
  | Beat_delayed of int  (** injected delivery jitter, in cycles *)
  | Steal_failed  (** an injected steal-CAS loss *)
  | Stall of int
      (** an injected OS-preemption stall: cycles on the simulator,
          counted polls on the domains backend *)
  | Wakeup_delayed
      (** an injected suppression of a parked-worker wakeup signal; the
          wakeup is owed, and the next wake, an idle worker or shutdown
          re-issues it *)

type event =
  | Heartbeat_generated
  | Heartbeat_detected
  | Heartbeat_missed
  | Poll
  | Promotion of { level : int }  (** nesting level of the split loop *)
  | Steal_attempt
  | Steal_success
  | Task_spawned
  | Task_joined_slow  (** a join finished by a worker other than the owner *)
  | Leftover_run
  | Chunk_update of { key : int; chunk : int }
      (** adaptive chunking committed a new chunk size; [key] is the outer
          iteration driving Fig. 12 *)
  | Fault_injected of fault
  | Mechanism_downgrade  (** watchdog fallback to software polling *)
  | Interval of { t0 : int; kind : string }
      (** a worker execution interval [t0, time); emitted at its end *)
  | Slice_enter of { nest : int; ord : int; key : int; lo : int; hi : int }
      (** a loop-slice invocation began covering iterations [lo, hi) of the
          loop at chain ordinal [ord]; [key] identifies the invocation
          (ancestor iteration vector + execution epoch) so the sanitizer can
          account coverage per invocation *)
  | Iter_exec of { nest : int; ord : int; key : int; lo : int; hi : int }
      (** iterations [lo, hi) of invocation [key] just executed; the
          sanitizer's work-conservation check requires the union of these
          intervals per [key] to tile its [Slice_enter] range exactly once *)
  | Task_pushed of { task : int }  (** owner pushed [task] at deque bottom *)
  | Task_popped of { task : int }  (** owner popped [task] at deque bottom *)
  | Task_stolen of { task : int; victim : int }
      (** the emitting worker stole [task] from the top of [victim]'s deque *)
  | Task_exec of { task : int }  (** [task]'s body started running *)
  | Chunk_decision of { key : int; old_chunk : int; min_polls : int; chunk : int }
      (** adaptive chunking recomputed [chunk] from [old_chunk] given the
          sliding-window minimum [min_polls]; the sanitizer replays the
          update rule to validate the transition *)
  | Promote_choice of { cur : int; tgt : int; chain : (int * bool * int) list }
      (** a promotion chose chain ordinal [tgt] while running [cur]; [chain]
          lists every owned candidate as (ordinal, splittable, remaining
          iterations) so the outer-loop-first policy can be checked *)

type record = { seq : int; time : int; worker : int; event : event }

val promotion : int -> event
(** [promotion level = Promotion { level }], but sharing a preallocated
    value for the small levels every real nest uses: emitting a promotion
    into any sink is allocation-free on the hot path. *)

val event_name : event -> string
(** Stable short name ("promotion", "steal-success", ...), used by the
    Perfetto exporter and the trace codec. *)

val fault_tag : fault -> string

module Sink : sig
  type t

  val null : t
  (** Drops every event. [enabled null = false], so emit sites can skip
      building payload events entirely. *)

  val stream : ?keep:(event -> bool) -> unit -> t
  (** Unbounded in-order capture of every event passing [keep] (default:
      all). *)

  val ring : ?keep:(event -> bool) -> workers:int -> capacity:int -> unit -> t
  (** Bounded capture: at most [capacity] records per worker, oldest
      overwritten first; {!dropped} counts the overwrites. Events from
      outside any worker context land in worker 0's ring. *)

  val fn : (time:int -> worker:int -> event -> unit) -> t
  (** Invoke a closure per event; captures nothing. *)

  val tee : t -> t -> t
  (** Emit into both sinks. [tee null s] is [s]. *)

  val enabled : t -> bool
  (** False only for {!null}: emit sites use it to avoid constructing
      payload-carrying events nobody will see. *)

  val captures : t -> bool
  (** True when the sink (or either side of a tee) stores records — i.e.
      {!captured} can return anything. Run signatures include this bit so
      journaled traced and untraced trials do not alias. *)

  val emit : t -> time:int -> worker:int -> event -> unit

  val captured : t -> record list
  (** Every stored record in emission ([seq]) order. Ring sinks merge their
      per-worker buffers by [seq]; [fn] and [null] sinks yield []. Tee sinks
      merge both branches' captures by record time (stable, left branch
      first on ties) — branch [seq] counters are independent, so time is
      the only cross-branch order. *)

  val dropped : t -> int
  (** Records overwritten by ring sinks (summed across a tee). *)
end

(** {2 Codec}

    Compact JSON for the experiment journal: a captured trace survives a
    [--resume] round trip, so figure queries run identically on replayed
    trials. Unknown event tags are skipped on read (forward
    compatibility); [seq] is reassigned from list order. *)

val records_to_json : record list -> Json.t

val records_of_json : Json.t -> record list
