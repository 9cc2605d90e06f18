(** Probe runner: wraps one measured body with the standard instrument set.

    Besides whatever deterministic metrics the body reports itself (virtual
    cycles, counters), every probe automatically records

    - [alloc_minor_words]: words allocated in the minor heap (Gc delta) —
      deterministic for plain OCaml bodies, hence gated; bodies that run
      effect-handler fibers pass [~det_alloc:false] because the fiber
      machinery adds a few dozen words of cross-process jitter;
    - [alloc_major_words]: words allocated directly in the major heap
      ([major_words - promoted_words] delta) — always {!Report.Advisory};
      runtime-internal major allocations make it jitter by a few words;
    - [wall_ns]: elapsed monotonic wall-clock time, {!Report.Advisory} only.

    The body receives a context to report its own metrics through {!det} /
    {!adv}; context metrics appear in declaration order, then the automatic
    instruments. *)

type ctx

val det : ctx -> string -> float -> unit
(** Report one deterministic metric. *)

val deti : ctx -> string -> int -> unit

val adv : ctx -> string -> float -> unit
(** Report one advisory (non-gating) metric. *)

val run : name:string -> ?det_alloc:bool -> (ctx -> unit) -> Report.probe
(** [run ~name body] measures [body]. [det_alloc] (default [true])
    selects whether [alloc_minor_words] is deterministic or advisory. *)
