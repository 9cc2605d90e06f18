(** Probe runner: wraps one measured body with the standard instrument.

    Besides whatever deterministic metrics the body reports itself (virtual
    cycles, counters), a probe records [alloc_minor_words]: words allocated
    in the minor heap (Gc delta). Bodies that run effect-handler fibers pass
    [~det_alloc:false], because the fiber machinery adds a few dozen words
    of cross-process jitter; they record no allocation metric.

    The body receives a context to report its own metrics through {!det};
    context metrics appear in declaration order, then the allocation
    count. *)

type ctx

val det : ctx -> string -> float -> unit
(** Report one deterministic metric. *)

val deti : ctx -> string -> int -> unit

val run : name:string -> ?det_alloc:bool -> (ctx -> unit) -> Report.probe
(** [run ~name body] measures [body]. [det_alloc] (default [true]) says
    whether [body] allocates deterministically, and so whether
    [alloc_minor_words] is recorded. *)
