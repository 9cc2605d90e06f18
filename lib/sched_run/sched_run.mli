(** The one front door for running a program, and the one place that
    knows the executor vocabulary.

    [Executor.run_program] (virtual time), [Native_run.run_program]
    (OCaml 5 domains) and the [Baselines] executors all produce a
    {!Sim.Run_result.t} from a program and a {!Hbc_core.Run_request.t};
    this module compiles heartbeat programs and is the total dispatch
    over (engine × backend). Harnesses, the server, the perf gate, the
    CLI and tests pick an {!engine} — by name through {!of_name}, or by
    constructor — apply the machine with {!with_machine}, key journals
    with {!signature}, and run it with {!run}; none of them calls an
    executor entry point or rebuilds an executor recipe.

    The heartbeat engines ([Hbc], [Tpal]) run on either backend — the
    same [Sched.Core] policy functor instantiated over {!Sim_backend} or
    [Domains_backend]. The OpenMP-model baselines are virtual-time
    simulations and exist only on [Sim]; the sequential reference is
    backend-neutral. *)

type engine =
  | Hbc of Hbc_core.Rt_config.t  (** the heartbeat runtime under this configuration *)
  | Tpal of Hbc_core.Rt_config.t
      (** TPAL: static chunk, inline leftover, ping thread
          ({!Hbc_core.Rt_config.tpal}); runs exactly as [Hbc] of the
          same configuration, and differs only in its {!family} *)
  | Openmp of Baselines.Openmp.config  (** OpenMP-model baseline (sim only) *)
  | Serial  (** sequential reference; backend-neutral *)
  | Hybrid of { hbc : Hbc_core.Rt_config.t; omp : Baselines.Openmp.config }
      (** the Sec. 6.8 hybrid (sim only): regular programs run as
          [Openmp] with [omp] under a static schedule, irregular ones as
          [Hbc hbc] ({!Baselines.Hybrid.chosen}); either way under the
          request *)

val hbc : engine
(** [Hbc Rt_config.hbc] — the paper's configuration. *)

val tpal : chunk:int -> engine
(** [Tpal (Rt_config.tpal ~chunk)]. *)

val hybrid : engine
(** The Sec. 6.8 hybrid under default configurations. *)

val names : string list
(** The executor names, in documentation order: seq, hbc, hbc-km,
    hbc-ping, tpal, omp-static, omp-dynamic. *)

val of_name : chunk:int -> string -> (string * engine) option
(** [of_name ~chunk name] is [Some (tag, engine)] for a name in {!names}:
    the trial tag its runs journal under and its engine on the default
    machine. [chunk] is the static chunk of tpal, hbc-km and hbc-ping
    (a benchmark's [tpal_chunk]). A family's default member journals
    under its {!family} (omp-dynamic as "omp"); a variant (hbc-km,
    hbc-ping, omp-static) under its own name. *)

val family : engine -> string
(** hbc, tpal, omp, seq or hybrid: the harness's default trial tag and
    the server's service name. *)

val with_machine : workers:int -> seed:int -> engine -> engine
(** Set the worker count and seed of every configuration the engine
    carries; [Serial] has neither. *)

val workers : engine -> int
(** The workers a run of the engine uses: 1 for [Serial]. *)

val signature : engine -> string
(** The journal signature of the engine's configuration:
    {!Hbc_core.Rt_config.signature} for [Hbc] and [Tpal],
    {!Baselines.Openmp.signature} for [Openmp], ["serial-exec"] for
    [Serial], and both hashes for [Hybrid]. *)

val run :
  ?request:Hbc_core.Run_request.t ->
  ?beat:Hb_parallel.Native_run.beat_source ->
  engine ->
  'e Ir.Program.t ->
  Sim.Run_result.t
(** Run [program] under [engine] on the request's [backend] (default
    request: [Sim]). The request is the only backend selector, so the
    result's provenance always names the backend that ran.
    [beat] applies to domains runs only (default wall-clock 100 µs).

    @raise Invalid_argument for combinations the backend cannot express:
    [Openmp]/[Hybrid] on [Domains]; a fault plan with simulator-only
    kinds ({!Sim.Fault_plan.simulator_only}) on [Domains] — portable
    plans inject natively; and pause/resume on [Domains] without a
    deterministic [Every_polls] beat and a single worker. *)
