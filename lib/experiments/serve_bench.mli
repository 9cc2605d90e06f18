(** Serving experiment (beyond the paper): the same seeded multi-tenant
    overload scenario offered to the HBC, TPAL, and OpenMP service
    executors, comparing tail sojourn (p50/p95/p99), goodput under
    overload, sheds, and deadline misses. Deterministic from the seed;
    every run carries the serve sanitizers. *)

val services : (string * Sched_run.engine) list
(** The service executors by name — hbc, tpal, omp-static, omp-dynamic —
    with TPAL's static chunk at 64, since one service runs every
    workload. [hbc_repro serve --service] takes the same names. *)

val render : Harness.config -> string

val figure : Figure.t
