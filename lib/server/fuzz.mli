(** Serve-mode differential fuzzing: draw seeded workload mixes — whole
    {!Server.config}s of N tenants x arrival process x fault plan — run
    each as a full multi-tenant {!Server} run with sanitizers and
    serial-reference verification on, and classify everything that must
    never happen under contention — mismatching fingerprints, invariant
    violations, crashes, lost jobs.

    Sheds, deadline misses and budget/guard failures are {e not} fuzz
    failures: they are the server's typed, expected degradation paths. *)

type failure =
  | Mismatch of { job : int; workload : string }
      (** a completed job's fingerprint differs from its serial reference *)
  | Invariant of { job : int option; violation : Server.violation }
      (** invariant violation; [None] is the server's lifecycle check *)
  | Crash of { job : int; reason : string }  (** the inner run raised *)
  | Lost_jobs of { submitted : int; accounted : int }
      (** terminal outcomes do not cover the submitted jobs *)
  | Recovery of string
      (** a WAL-recovered re-run of the campaign diverged from the
          uninterrupted run *)

val failure_kind : failure -> string
(** Stable class tag: ["mismatch"], ["violation:<invariant>"], ["crash"],
    ["lost-jobs"], ["recovery"]. *)

val failure_describe : failure -> string

type outcome = {
  result : Server.result;
  failures : failure list;  (** empty: the mix passed *)
}

val gen_mix : Sim.Sim_rng.t -> Server.config
(** Draw one random workload mix: 2–4 tenants over
    {!Sanitizer.Fuzz.workload_pool}, at most one faulty, either
    preemption policy, with [sanitize] and [verify] on. Equal generator
    states draw equal mixes. *)

val describe : Server.config -> string
(** One line: seed, pool, queue, policy and each tenant's arrival process,
    jobs, workers and deadline range ("FAULTY" marks a fault plan). *)

val run_mix : Server.config -> outcome
(** Run the mix end to end. Deterministic: equal configs give equal
    outcomes. *)

val run_mix_recovery : Server.config -> outcome
(** {!run_mix}, then crash-inject the same campaign: re-run it through a
    temporary WAL killed (with a torn trailing record) halfway through
    its decisions, recover from the partial log, and byte-compare the
    recovered journal against the uninterrupted run's. Divergence is
    reported as a {!Recovery} failure on top of the base outcome. *)
