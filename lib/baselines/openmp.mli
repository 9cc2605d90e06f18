(** OpenMP-like runtime: the paper's comparison baseline (clang/libomp).

    Models a parallel-for team with static or dynamic scheduling. A parallel
    region forks the team (fork cost), workers grab contiguous blocks
    (static) or chunks from a shared queue (dynamic, per-grab dispatch
    cost), and a barrier joins the region. Nested DOALL loops run serially
    by default ([Outermost_only], the good practice all the paper's OpenMP
    numbers use); [All_doall] reproduces the Sec. 6.7 experiment where every
    DOALL loop gets a pragma: each inner invocation creates a nested region
    whose team construction contends on a global runtime lock and whose
    tasks pay the few-thousand-cycle spawn cost, which is what makes
    spmv-style benchmarks not finish.

    Loops listed in the program's [omp_serial_nests] run sequentially on the
    master (e.g. Rodinia kmeans' center-update reduction), reproducing the
    original benchmarks' pragma placement. Root-loop reductions are combined
    sequentially by the master at the join, as libomp-era benchmarks do. *)

type schedule =
  | Static
  | Dynamic of int  (** dynamic chunk size (default 1) *)
  | Guided of int
      (** guided self-scheduling: chunks proportional to the remaining
          iterations per team member, floored at the given minimum *)

type nested_mode = Outermost_only | All_doall

type config = {
  cost : Sim.Cost_model.t;
  workers : int;
  schedule : schedule;
  nested : nested_mode;
  seed : int;
}
(** Per-run knobs (DNF cap, trial watchdogs, trace sink) arrive through
    the shared {!Hbc_core.Run_request.t} instead. *)

val dynamic : ?chunk:int -> ?workers:int -> unit -> config
(** The paper's default OpenMP configuration: [schedule(dynamic, 1)],
    outermost loop only, 64 workers. *)

val static : ?workers:int -> unit -> config

val guided : ?min_chunk:int -> ?workers:int -> unit -> config

val run_program :
  ?request:Hbc_core.Run_request.t -> config -> 'e Ir.Program.t -> Sim.Run_result.t
(** The request's caps ([max_cycles], [deadline], [cycle_budget], [guard])
    apply exactly as for the heartbeat executor: both run inside
    {!Hbc_core.Sim_backend.supervise}. Tracing records each worker's
    parallel-region intervals ("omp-region"); the fine-grained scheduler
    events have no OpenMP analogue. The fault plan, [promotion_budget] and
    pause/resume are ignored: they model heartbeat machinery the OpenMP
    runtime does not have. *)

val signature : config -> string
(** Hex content hash of the result-affecting fields (seed included), used by
    the experiment journal as part of the trial cache key. *)
