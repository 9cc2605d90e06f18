(** The backend-agnostic run facade: one entry point over every executor
    front end and both scheduler backends.

    [Executor.run_program] (virtual time), [Native_run.run_program]
    (OCaml 5 domains) and the [Baselines] executors all produce a
    {!Sim.Run_result.t} from a program and a {!Hbc_core.Run_request.t};
    this module compiles heartbeat programs and is the total dispatch
    over (engine × backend) so harnesses, the CLI and tests pick a
    combination instead of an entry point. The heartbeat
    engines ([Hbc], [Tpal]) run on either backend — the same
    [Sched.Core] policy functor instantiated over {!Sim_backend} or
    [Domains_backend]. The OpenMP-model baselines are virtual-time
    simulations and exist only on [Sim]; the sequential reference is
    backend-neutral. *)

type engine =
  | Hbc of Hbc_core.Rt_config.t  (** the heartbeat runtime under this configuration *)
  | Tpal of { chunk : int }  (** TPAL: static chunk, inline leftover, ping thread *)
  | Openmp of Baselines.Openmp.config  (** OpenMP-model baseline (sim only) *)
  | Serial  (** sequential reference; backend-neutral *)
  | Hybrid of { hbc : Hbc_core.Rt_config.t; omp : Baselines.Openmp.config }
      (** the Sec. 6.8 hybrid (sim only): regular programs run as
          [Openmp] with [omp] under a static schedule, irregular ones as
          [Hbc hbc] ({!Baselines.Hybrid.chosen}); either way under the
          request *)

val hbc : engine
(** [Hbc Rt_config.hbc] — the paper's configuration. *)

val hybrid : engine
(** The Sec. 6.8 hybrid under default configurations. *)

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
