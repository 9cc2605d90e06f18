(** Lock-free Chase–Lev work-stealing deque on OCaml [Atomic].

    The owner pushes and pops at the bottom without contention in the common
    case; thieves steal from the top with a compare-and-set. This is the
    classic dynamic circular work-stealing deque (Chase & Lev, SPAA'05) in
    its sequentially-consistent form — OCaml's [Atomic] operations are SC,
    so no explicit fences are needed.

    The interface is exactly the scheduler core's deque signature
    ({!Sched.Backend_intf.DEQUE}) — the same shape {!Sim.Deque} implements
    for the simulator and the sanitizer's shadow replay, which is what lets
    {!Sanitizer.Checker.Deque_discipline} audit this implementation against
    the sequential model on linearized native traces.

    Safety contract: {!push} and {!pop} may only be called by the owning
    domain; {!steal} may be called by any domain. *)

include Sched.Backend_intf.DEQUE
