(** The heartbeat runtime on real OCaml 5 domains.

    The shared compiled-nest interpreter ({!Hbc_core.Interp}) over the
    domains backend: the same {!Sched.Policy} promotion choice,
    {!Sched.Adaptive_chunking} rule, {!Sched.Leftover_walk} and
    deque/steal/join discipline ([Sched.Core.Make (Domains_backend)]) that
    the virtual-time {!Hbc_core.Executor} runs — driven by wall-clock or
    poll-count heartbeats and real parallelism instead of simulated time.
    Traced runs emit the same capture-gated {!Obs.Trace} events at the
    same operation boundaries, so {!Sanitizer.Checker} validates native
    streams with its full invariant set, and fingerprints cross-check
    against simulator runs of the same program.

    {b Chaos.} A backend-portable fault plan ({!Sim.Fault_plan.portable})
    arms seed-deterministic fault injection on the domains backend:
    dropped beats and poll-counted stalls are drawn at beat boundaries
    ({!Beat}), steal refusals inside the steal protocol, wakeup
    suppressions on the park/wake path. The injection {e decision
    sequences} are reproducible from [(plan seed, P)]; results never
    change — only performance. A starvation watchdog bounds the damage:
    a worker missing [cfg.watchdog_k] consecutive beats downgrades itself
    to polling fallback, and a progress check sampled from the other
    workers' leaf polls disables further promotions when a busy worker
    stops progressing; both emit
    {!Obs.Trace.Mechanism_downgrade}.

    {b Pause/resume.} Under [Every_polls] with one worker, [pause_at]
    (a scheduling-point count) stops the run at a deterministic boundary
    and returns [Paused] with a {!Sim.Checkpoint_state}; [resume_from]
    replays from scratch with the request sink gated until the boundary,
    byte-verifies the re-derived state against the checkpoint
    ({!Sim.Checkpoint_state.equal}; mismatch is
    [Guard_aborted "resume-divergence: ..."]), then continues. The
    per-episode trace streams tile the uninterrupted run's stream exactly
    once. *)

exception Internal_error of string
(** Alias of {!Hbc_core.Interp.Internal_error}: a runtime invariant
    broke (a bug, not a user error). *)

type beat_source = Beat.source = Wall_us of float | Every_polls of int
(** See {!Beat.source}. *)

val run_program :
  ?request:Hbc_core.Run_request.t ->
  ?beat:beat_source ->
  Hbc_core.Rt_config.t ->
  'e Hbc_core.Pipeline.program ->
  Sim.Run_result.t
(** Run one compiled program on [cfg.workers] domains (the caller is
    worker 0). The config's virtual cost model, mechanism and seed are
    ignored; policy, chunking, promotion, leftover and [watchdog_k]
    knobs all apply. From the request, [trace], [sanitize],
    [promotion_budget], portable [fault_plan]s and
    [pause_at]/[resume_from] (single worker, [Every_polls]) apply.

    The result reuses the simulator's record: [makespan] is monotonic
    wall-clock microseconds (comparable only between native runs), [work_cycles]
    and [metrics.work_cycles] sum the per-worker body work,
    [metrics.promotions] counts splits, the [metrics.faults_*] counters
    count injected chaos events ([faults_stall_cycles] carries the
    poll-counted stall total) and [metrics.downgrades] the watchdog
    trips; other counters stay 0.

    @raise Invalid_argument naming the offending feature when the fault
    plan has simulator-only kinds ({!Sim.Fault_plan.simulator_only}), or
    when [pause_at]/[resume_from] is requested under a wall-clock beat
    or with more than one worker. *)
