(** Per-tenant circuit breaker: closed -> open -> half-open.

    A tenant whose jobs keep failing (livelocked by its fault plan, blowing
    its cycle budget) is quarantined instead of stalling the shared pool:
    after [failure_threshold] consecutive failures the breaker opens and
    the tenant's submissions are shed with reason "breaker-open". After a
    cooldown — grown exponentially per consecutive open, the same backoff
    shape the experiment harness uses for transient-trial retries — the
    breaker admits a budget of half-open probe jobs; all probes succeeding
    closes it, any probe failing re-opens it with a longer cooldown.

    All decisions are functions of virtual time and recorded outcomes, so
    breaker behaviour is deterministic per seed. *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** "closed" / "open" / "half-open" — the strings carried by
    {!Lifecycle.Breaker_transition} events. *)

type config = {
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  cooldown : int;  (** base quarantine, in virtual cycles *)
  backoff : float;  (** cooldown multiplier per consecutive open *)
  probe_budget : int;  (** half-open probe jobs (and successes required to close) *)
}

val default_config : config

type t

val create : ?config:config -> on_transition:(from_state:state -> to_state:state -> unit) -> unit -> t
(** [on_transition] fires on every state change (trace emission hook). *)

val state : t -> state

val admit : t -> now:int -> bool
(** May the tenant submit a job now? Transitions open -> half-open when
    the cooldown has elapsed (the admitted job is the first probe). *)

val record : ?probe:bool -> t -> now:int -> ok:bool -> unit
(** Feed a completed job's outcome back. [ok = false] means the job failed
    structurally (budget/guard/invariant) — deadline misses under overload
    are the server's fault, not the tenant's, and must not be recorded.

    [probe] (default true) says whether the job's ADMISSION consumed a
    half-open probe. Pass false for jobs admitted while the breaker was
    still closed: if such a job completes during a later half-open window
    its success is stale evidence and must not count toward re-closing
    (its failure still re-trips — the tenant demonstrably still fails). *)

val retry_at : t -> now:int -> int
(** Earliest virtual time at which {!admit} could next succeed (strictly
    after [now]); used to defer a submission instead of shedding it. *)
