(** The signatures {!Core.Make} is a functor over.

    A backend supplies the five machine-shaped concerns the policy core
    abstracts away: worker identity, a time source, the per-worker task
    deques, trace emission, and cost/idling behavior. The policy core
    supplies everything the paper argues about: deque discipline, the
    steal protocol, joins, and task lifecycle events. *)

(** Shape of a work-stealing deque a backend schedules over. The owner
    pushes and pops at the bottom; thieves steal at the top.
    [Hb_parallel.Ws_deque] (lock-free Chase–Lev on [Atomic]) implements it
    for real domains; [Sim.Deque] implements the same discipline for the
    deterministic simulator. *)
module type DEQUE = sig
  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** Owner-side push at the bottom. *)

  val pop : 'a t -> 'a option
  (** Owner-side pop of the newest element. *)

  val steal : 'a t -> 'a option
  (** Thief-side removal of the oldest element; [None] when empty or when
      the race for the element was lost. *)

  val size : 'a t -> int
  (** Snapshot size (approximate under concurrency; exact when quiescent). *)
end

(** One scheduler backend: the simulated machine or the real one.

    Contract for trace atomicity: the core wraps every deque operation
    together with the events describing it in {!BACKEND.critical}, and
    only calls {!BACKEND.emit} from inside such a section. A sequential
    backend implements [critical] as a plain call; a concurrent backend
    that records traces must make the section atomic (one global lock is
    enough — tracing a native run serializes its {e scheduling points},
    never its loop bodies) so the sanitizer's shadow-deque replay sees a
    linearization consistent with the real deque states. *)
module type BACKEND = sig
  type t

  val num_workers : t -> int

  val worker_id : t -> int
  (** Identity of the calling worker, in [0, num_workers). *)

  val now : t -> int
  (** Monotone time for trace stamps: virtual cycles in the simulator, a
      logical emission tick natively. *)

  val capture : t -> bool
  (** Whether the run's sink wants payload events (task ids, intervals);
      mirrors the executor's capture gate so uncaptured runs allocate
      nothing for them. *)

  val critical : t -> (unit -> unit) -> unit
  (** Run a deque-op + emission group atomically (see the contract above). *)

  val emit : t -> Obs.Trace.event -> unit
  (** Emit one trace event stamped with the current worker and {!now}.
      Only called from inside {!critical}. *)

  (* Deques *)

  val push : t -> Task.t -> unit
  (** Push onto the calling worker's own deque bottom. *)

  val pop : t -> Task.t option
  (** Pop from the calling worker's own deque bottom. *)

  val steal_from : t -> victim:int -> Task.t option

  val deque_empty : t -> worker:int -> bool

  val random_victim : t -> int
  (** Draw a steal victim in [0, num_workers) from the backend's RNG (the
      engine RNG in the simulator — part of the deterministic schedule —
      or a per-worker xorshift natively). *)

  (* Fault injection and seeded-bug hooks (identity on backends without
     an injector). *)

  val steal_vetoed : t -> bool
  (** An injected contention burst: the attempt's CAS loses even against a
      non-empty victim (the attempt cost is still paid). *)

  val keep_stolen : t -> Task.t -> bool
  (** False exactly when a seeded [Lose_stolen_task] bug swallows this
      successfully stolen task (sanitizer tests only). *)

  val pre_task : t -> unit
  (** Scheduling-point hook before a task body runs (injected OS-preemption
      stalls in the simulator). *)

  val on_task_claim : t -> unit
  (** The calling worker obtained a task (reset idle/backoff state). *)

  (* Blocking and wakeups *)

  val wake_one : t -> unit
  (** A task became available: wake one parked worker, if any. *)

  val unpark : t -> worker:int -> unit
  (** A join completed: wake its owner, if parked. *)

  val idle : t -> until:int Atomic.t -> unit
  (** Nothing to pop or steal: park, back off, or spin — backend's choice.
      [until] is the caller's wait count (a join's pending count, or the
      core's live flag for a scavenger): the caller can move on once it
      reads 0 or some deque holds a task. A parking backend re-checks
      both after announcing itself, so a wakeup published before that
      re-check is never needed; the simulator ignores it. *)

  val set_busy : t -> worker:int -> busy:bool -> unit
  (** Outermost task-nesting transition (drives the heartbeat busy flag in
      the simulator; no-op natively). *)

  (* Overhead charging: virtual cycles + metrics attribution in the
     simulator, no-ops natively (real time is simply spent). *)

  val charge_push : t -> unit

  val charge_pop : t -> unit

  val charge_steal_attempt : t -> unit

  val charge_steal_success : t -> unit

  val charge_join_slow : t -> unit
end
