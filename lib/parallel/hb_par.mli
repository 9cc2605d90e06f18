(** A real heartbeat-scheduled parallel-for on OCaml 5 domains.

    This is the flat-loop native API: a domain pool running the shared
    scheduler core ([Sched.Core.Make (Domains_backend)] — the same
    promotion split, deque discipline, steals and joins the virtual-time
    executor instantiates over {!Sim_backend}) whose [parallel_for] polls
    {!Beat} at chunk boundaries and, when a heartbeat interval has
    elapsed (seen at one boundary, taken at the next: a loop here has no
    latch to take it sooner), promotes the remaining iterations by
    splitting them at {!Sched.Policy.split_point} and pushing the upper
    half as a stealable core task — all parallelism is latent until a
    heartbeat materializes it, so tight loops run at near-sequential
    speed.

    For running {e compiled programs} (nests, leftover tasks, traced and
    sanitized runs) natively, use {!Native_run} — or the backend-agnostic
    facade [Sched_run.run] with a [Domains] request, which dispatches to
    {!Native_run}.

    On the single-core container this library is exercised for correctness
    (results equal the sequential ones under any interleaving); on a real
    multicore it provides speedup too. *)

type pool

val create : ?heartbeat_us:float -> num_domains:int -> unit -> pool
(** Spawn [num_domains - 1] worker domains (the caller participates as
    member 0). [heartbeat_us] defaults to 100 (the paper's rate). *)

val shutdown : pool -> unit
(** Join all worker domains. Idempotent. *)

val with_pool : ?heartbeat_us:float -> num_domains:int -> (pool -> 'a) -> 'a

val parallel_for : pool -> lo:int -> hi:int -> (int -> unit) -> unit
(** Heartbeat-promoted loop over [\[lo, hi)]. The body may itself call
    [parallel_for] (nested parallelism) but must not raise. *)

val parallel_reduce :
  pool -> lo:int -> hi:int -> init:'a -> body:('a -> int -> 'a) -> combine:('a -> 'a -> 'a) -> 'a
(** Heartbeat-promoted reduction; [combine] must be associative and is
    applied in deterministic split order. *)

val num_domains : pool -> int

val promotions : pool -> int
(** Promotions performed since pool creation (observability/tests). *)
