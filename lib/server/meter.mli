(** Weighted per-tenant promotion meter.

    Promotion opportunities — the right to split a loop into stealable
    tasks — are the contended resource the server meters. Each tenant
    holds a balance credited every [refill_period] virtual cycles with
    [refill_amount * weight] promotions (capped at [burst_cap * weight]);
    a starting job is granted up to its request from the balance and
    refunds what it did not use at completion. Every credit is emitted as
    a {!Lifecycle.Budget_refill} stamped with its epoch-boundary time, so
    the lifecycle check can replay the exact balance and prove no tenant
    ever overdraws (budget conservation). *)

type config = { refill_period : int; refill_amount : int; burst_cap : int }

val default_config : config

type t

val create :
  ?config:config -> weights:int array -> emit:(time:int -> tenant:int -> amount:int -> unit) -> unit -> t
(** One balance per entry of [weights]; all balances start empty — call
    {!advance} [~now:0] to apply the epoch-0 credit. *)

val advance : t -> now:int -> unit
(** Credit every epoch boundary up to [now] (idempotent per epoch). Call
    it before any grant at [now] so refill events precede the grants they
    fund. *)

val balance : t -> tenant:int -> int

val grant : t -> tenant:int -> want:int -> int
(** Take up to [want] promotions from the balance; returns what was
    actually granted (possibly 0 — the job then runs serially). *)

val refund : t -> now:int -> tenant:int -> int -> unit
(** Return a job's unused grant (credited back up to the burst cap, and
    emitted as a refill so the sanitizer's replayed balance stays exact). *)
