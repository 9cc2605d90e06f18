(** Real OCaml 5 domains as a scheduler backend
    ({!Sched.Backend_intf.BACKEND}).

    Worker identity lives in domain-local storage ({!register}); deques
    are the lock-free Chase–Lev {!Ws_deque}; victim selection is a
    per-worker xorshift; idling spins briefly, then parks on a condition
    variable until a wakeup ticket arrives. A parker re-checks its wait
    count and the deques after announcing itself, and wakers publish
    before they look for parkers, so no wakeup is lost and no timer
    domain is needed. An untraced backend is fully lock-free on the
    scheduling fast path. A traced one (enabled sink) linearizes every
    deque-op + emission group under one global mutex and stamps events
    with a logical tick, so {!Sanitizer.Checker} validates native
    streams — shadow-deque replay included — with the same invariant set
    it runs on simulated ones.

    An attached {!Sim.Fault_injector} ({!set_injector}) arms chaos mode:
    steal attempts can be vetoed and parked-worker wakeups suppressed
    from per-worker seeded decision streams, reproducible from
    [(plan seed, P)]. A suppressed wakeup is owed: the next wake, any
    worker entering [idle] and {!stop} re-issue it. Without an injector
    every chaos hook short-circuits on one bool. *)

type t

val register : worker:int -> unit
(** Bind the calling domain to a worker index (domain-local); {!start}
    does this for the pool. *)

val create : workers:int -> trace:Obs.Trace.Sink.t -> capture:bool -> t

val set_injector : t -> Sim.Fault_injector.t -> unit
(** Attach a fault injector (arming chaos mode iff it is active). Must be
    called before worker domains start — the [chaos] flag is read without
    synchronization on the scheduling fast path. *)

val injector : t -> Sim.Fault_injector.t
(** The attached injector ({!Sim.Fault_injector.inactive} by default). *)

val rng_word : t -> worker:int -> int
(** [worker]'s victim-selection xorshift state word (checkpointed at the
    single-worker pause boundary). *)

val deque_task_ids : t -> worker:int -> int list
(** Task ids in [worker]'s deque, oldest (steal end) first. Quiescent
    snapshots only (the single-worker pause boundary). *)

val start : t -> work:(unit -> unit) -> unit Domain.t list
(** Start the pool: register the caller as worker 0 and spawn
    [workers - 1] domains, each registered as worker 1..n-1 and running
    [work]. No other domain is started. *)

val stop : t -> unit Domain.t list -> unit
(** Shut down what {!start} started: wake every parked worker (never
    chaos-suppressed; it also pays any owed wakeup), then join the
    domains. Set the core's finished flag first, so [work] returns. *)

val is_busy : t -> worker:int -> bool
(** The [set_busy] flag for [worker] — true while it runs inside an
    outermost task. Sampled by watchdog rung 2 from other domains (racy
    reads are fine: the watchdog tolerates sampling error, it only needs
    eventual accuracy). *)

(** {2 BACKEND implementation} *)

val num_workers : t -> int

val worker_id : t -> int

val now : t -> int

val capture : t -> bool

val critical : t -> (unit -> unit) -> unit

val emit : t -> Obs.Trace.event -> unit

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
