(** Deterministic adversarial-schedule fuzzer.

    A {!case} is a small, fully-serializable description of one stress
    run: a registry workload at a tiny scale, a seeded draw of the
    runtime knobs ({!Hbc_core.Rt_config}), a deterministic fault plan
    (heartbeat drops/jitter, steal-failure bursts, stalls), and optionally
    a {!Hbc_core.Executor.seeded_bug} (the forced-failure mode that proves
    the pipeline catches real scheduler bugs).

    Every case runs under the {!Checker} {e and} is differentially
    checked against the sequential reference's fingerprint. A failing case
    is {!shrink}'d — halve the workload, drop fault events, reset knobs —
    to a minimal case with the same failure kind, serialized as JSON that
    [hbc_repro fuzz --replay case.json] re-executes byte-identically
    (equal seeds give equal schedules). *)

type case = {
  seed : int;  (** runtime + fault-plan seed: the whole schedule *)
  workload : string;  (** registry benchmark name *)
  scale : float;
  workers : int;
  mechanism : Hbc_core.Rt_config.mechanism;
  chunk : Hbc_core.Compiled.chunk_mode;
  policy : Hbc_core.Rt_config.promotion_policy;
  leftover : Hbc_core.Rt_config.leftover_mode;
  chunk_transferring : bool;
  ac_target_polls : int;
  ac_window : int;
  plan : Sim.Fault_plan.t;  (** {!Sim.Fault_plan.none} for fault-free cases *)
  bug : Hbc_core.Executor.seeded_bug option;  (** forced-failure mode *)
  native_beat : int option;
      (** [Some n]: run on the real domains backend with a deterministic
          beat every [n] polls ({!Hb_parallel.Native_run.Every_polls});
          [None]: the virtual-time simulator. Omitted from the canonical
          JSON when [None], so pre-native repro hashes are unchanged. *)
}

type failure =
  | Violations of Checker.violation list  (** non-empty *)
  | Mismatch of { expected : float; got : float }
      (** fingerprint differs from the sequential reference *)
  | Dnf  (** exceeded the generous virtual-time cap *)
  | Crash of string  (** the run raised (deadlock, internal error, ...) *)

val failure_kind : failure -> string
(** Stable class tag used to decide whether a shrunk or replayed case
    reproduces "the same" failure: ["violation:<invariant>"] (first
    violation's invariant), ["mismatch"], ["dnf"], or ["crash"]. *)

val failure_describe : failure -> string

type outcome = {
  case : case;
  failure : failure option;
  sanitizer_summary : string;
  makespan : int;
}

val workload_pool : string array
(** The small irregular registry workloads cases draw from. *)

val gen : Sim.Sim_rng.t -> case
(** Draw one random (bug-free) case. Equal generator states draw equal
    cases, so a whole campaign replays from its seed list. *)

val gen_native : Sim.Sim_rng.t -> case
(** Draw one random native chaos case: the domains backend under a
    deterministic [Every_polls] beat, a backend-portable fault plan
    ({!Sim.Fault_plan.random_portable}, or none), 1–4 workers and no
    seeded bug. The sanitizer and differential fingerprint check apply
    exactly as in sim mode — chaos may only change performance, never
    results. *)

val run_case : case -> outcome
(** Execute the case: sequential reference, then the heartbeat executor
    under the sanitizer with the case's fault plan (and seeded bug, if
    any). Never raises; crashes are folded into the outcome. *)

val shrink : case -> kind:string -> case * int
(** Greedily minimize the case while {!run_case} keeps failing with
    [kind]; returns the smallest case found and how many candidate runs
    were spent. The input case must itself fail with [kind]. *)

val case_to_json : case -> Obs.Json.t

val case_of_json : Obs.Json.t -> (case, string) result

val case_hash : case -> string
(** Hex digest of the canonical JSON encoding; stamped into
    {!Hbc_core.Run_request.fuzz_case} so fuzz trials never alias ordinary
    runs in the experiment journal. *)

val repro_to_json : case -> kind:string -> summary:string -> Obs.Json.t
(** The repro-file format: the case plus the failure class it must
    reproduce and a human-readable summary. *)

val repro_of_json : Obs.Json.t -> (case * string, string) result
(** Parse a repro file back into (case, expected failure kind). *)

val bug_to_string : Hbc_core.Executor.seeded_bug -> string

val bug_of_string : string -> (Hbc_core.Executor.seeded_bug, string) result
(** "duplicate-leftover" | "lose-stolen-task" | "promote-innermost". *)
