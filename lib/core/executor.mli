(** The heartbeat runtime (Sec. 5) running a compiled program on the
    simulated multicore machine.

    Worker 0 executes the program's serial driver; invoking a nest runs its
    root loop-slice task. All workers share per-worker task deques under a
    work-stealing discipline with the clone optimization: a promotion pushes
    the two loop-slice halves and the leftover task onto the promoting
    worker's deque, runs them itself if nobody steals them (fast path, no
    synchronization cost), and pays the slow-path synchronization only for
    stolen tasks.

    A promotion (outer-loop-first, Sec. 2) picks the outermost loop of the
    current context chain with at least one remaining iteration, consumes
    its remaining iterations from the running task, splits them into two
    slice tasks, and materializes the leftover task from the leftover table.
    Reductions get fresh locals per slice half, combined at the join.

    The interpreter itself is {!Interp}, shared with the domains backend;
    this module supplies its virtual-time hooks (cost-model charging,
    heartbeat mechanisms, shared-bus traffic) and the driver. *)

exception Internal_error of string
(** Alias of {!Interp.Internal_error}: a runtime invariant broke (a bug,
    not a user error). *)

(** Re-export of {!Interp.seeded_bug}, the sanitizer's plantable
    scheduler bugs. *)
type seeded_bug = Interp.seeded_bug =
  | Duplicate_leftover
  | Lose_stolen_task
  | Promote_innermost

val set_seeded_bug : seeded_bug option -> unit
(** Arm (or with [None] disarm) a seeded bug for subsequent runs on either
    backend. Global, read once per run. *)

val run_program : ?request:Run_request.t -> Rt_config.t -> 'e Pipeline.program -> Sim.Run_result.t
(** Run one compiled program. The optional {!Run_request.t} carries the
    per-run knobs — DNF cap, trial watchdogs, fault plan, trace sink; the
    default requests a plain, unobserved, uncapped run. Every scheduler
    action is emitted exactly once as an {!Obs.Trace.event} into the
    request's sink (teed with the metrics counting sink); emission never
    perturbs virtual time, so results are independent of the sink. *)
