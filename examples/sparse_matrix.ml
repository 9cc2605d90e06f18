(* Sparse-matrix workloads: how the same spmv kernel behaves under heartbeat
   scheduling across the paper's three sparsity patterns, and how adaptive
   chunking reacts to them (the Fig. 12 visualization).

   Run with: dune exec examples/sparse_matrix.exe *)

let run_one name program =
  let seq = Baselines.Serial_exec.run_program program in
  let request =
    Hbc_core.Run_request.make
      ~trace:
        (Obs.Trace.Sink.stream
           ~keep:(function Obs.Trace.Chunk_update _ -> true | _ -> false)
           ())
      ()
  in
  let hbc = Sched_run.run ~request Sched_run.hbc program in
  let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) program in
  Printf.printf "%-22s seq %9d cy | OpenMP %5.1fx | HBC %5.1fx | promotions L0=%d L1=%d\n" name
    seq.Sim.Run_result.work_cycles
    (Sim.Run_result.speedup ~baseline:seq omp)
    (Sim.Run_result.speedup ~baseline:seq hbc)
    hbc.Sim.Run_result.metrics.Sim.Metrics.promotions_by_level.(0)
    hbc.Sim.Run_result.metrics.Sim.Metrics.promotions_by_level.(1);
  hbc

let () =
  let scale = 0.5 in
  let programs =
    [
      ("spmv-arrowhead", Workloads.Spmv.arrowhead ~scale);
      ("spmv-powerlaw", Workloads.Spmv.powerlaw ~scale);
      ("spmv-powerlaw-reverse", Workloads.Spmv.powerlaw_reverse ~scale);
      ("spmv-random", Workloads.Spmv.random ~scale);
    ]
  in
  let results = List.map (fun (n, p) -> (n, p, run_one n p)) programs in
  print_newline ();

  (* Adaptive chunking trace: average chunk size chosen while the runtime
     worked in each region of the row space, next to the rows' density. *)
  List.iter
    (fun (name, program, hbc) ->
      let env = program.Ir.Program.make_env () in
      let matrix = env.Workloads.Spmv.matrix in
      let n = matrix.Workloads.Matrix_gen.n in
      let buckets = 8 in
      let sum = Array.make buckets 0.0 and cnt = Array.make buckets 0 in
      List.iter
        (fun (_, row, chunk) ->
          if row >= 0 && row < n then begin
            let b = row * buckets / n in
            sum.(b) <- sum.(b) +. Float.of_int chunk;
            cnt.(b) <- cnt.(b) + 1
          end)
        (Obs.Trace_query.chunk_updates hbc.Sim.Run_result.trace);
      let rows =
        List.init buckets (fun b ->
            let lo = b * n / buckets and hi = ((b + 1) * n / buckets) - 1 in
            let nnz = ref 0 in
            for i = lo to hi do
              nnz := !nnz + Workloads.Matrix_gen.nnz_of_row matrix i
            done;
            let avg_nnz = Float.of_int !nnz /. Float.of_int (hi - lo + 1) in
            let avg_chunk = if cnt.(b) = 0 then 0.0 else sum.(b) /. Float.of_int cnt.(b) in
            (Printf.sprintf "rows %6d..%6d nnz/row %7.1f" lo hi avg_nnz, avg_chunk))
      in
      print_string
        (Report.Ascii_chart.bars ~title:(name ^ ": AC chunk size by row region") rows);
      print_newline ())
    results
