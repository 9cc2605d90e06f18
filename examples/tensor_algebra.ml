(* Sparse tensor algebra: TACO-style TTV and TTM kernels over a compressed
   sparse fiber tensor — three-level DOALL nests whose parallelism can sit
   in any of the three loops depending on the fiber-length distribution.
   The paper's point: TACO itself only parallelizes the outermost loop;
   heartbeat scheduling can safely expose all three.

   Run with: dune exec examples/tensor_algebra.exe *)

let run_one name program =
  let seq = Baselines.Serial_exec.run_program program in
      let hbc = Sched_run.run Sched_run.hbc program in
      let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) program in
      let m = hbc.Sim.Run_result.metrics in
      Printf.printf "%-4s OpenMP(outer only) %5.1fx | HBC %5.1fx | promotions L0=%d L1=%d L2=%d | valid %b\n"
        name
        (Sim.Run_result.speedup ~baseline:seq omp)
        (Sim.Run_result.speedup ~baseline:seq hbc)
        m.Sim.Metrics.promotions_by_level.(0) m.Sim.Metrics.promotions_by_level.(1)
        m.Sim.Metrics.promotions_by_level.(2)
        (Sim.Run_result.fingerprints_close seq hbc)

let () =
  let scale = 0.5 in
  run_one "ttv" (Workloads.Ttv.program ~scale);
  run_one "ttm" (Workloads.Ttm.program ~scale)
