(* Fig. 12: visualization of adaptive chunking on the four spmv inputs — the
   chunk size chosen by AC moves inversely to the per-row non-zero count.
   Rows are bucketed; each bucket reports the average non-zeros per row and
   the average chunk size AC chose while working in that region. *)

let buckets = 16

let render config =
  let programs =
    [
      ("arrowhead", Workloads.Spmv.arrowhead ~scale:config.Harness.scale);
      ("powerlaw", Workloads.Spmv.powerlaw ~scale:config.Harness.scale);
      ("powerlaw-reverse", Workloads.Spmv.powerlaw_reverse ~scale:config.Harness.scale);
      ("random", Workloads.Spmv.random ~scale:config.Harness.scale);
    ]
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, program) ->
      let engine =
        Sched_run.with_machine ~workers:config.Harness.workers ~seed:config.Harness.seed
          Sched_run.hbc
      in
      (* Capture only the AC decisions: a keep-filtered stream sink keeps the
         journaled trace proportional to the number of chunk updates, not to
         the run's full event volume. *)
      let request =
        Hbc_core.Run_request.make
          ~trace:
            (Obs.Trace.Sink.stream
               ~keep:(function Obs.Trace.Chunk_update _ -> true | _ -> false)
               ())
          ()
      in
      match
        Harness.trial config ~bench:("spmv-" ^ name) ~tag:"fig12-trace"
          ~signature:(Sched_run.signature engine ^ "+" ^ Hbc_core.Run_request.signature request)
          (fun () -> Sched_run.run ~request:(Harness.guarded config request) engine program)
      with
      | Error e ->
          Buffer.add_string buf
            (Printf.sprintf "Figure 12 (%s): unavailable — %s\n\n" name (Trial_error.to_string e))
      | Ok r ->
      let env = program.Ir.Program.make_env () in
      let matrix = env.Workloads.Spmv.matrix in
      let n = matrix.Workloads.Matrix_gen.n in
      let chunk_sum = Array.make buckets 0.0 and chunk_cnt = Array.make buckets 0 in
      List.iter
        (fun (_, row, chunk) ->
          if row >= 0 && row < n then begin
            let b = row * buckets / n in
            chunk_sum.(b) <- chunk_sum.(b) +. Float.of_int chunk;
            chunk_cnt.(b) <- chunk_cnt.(b) + 1
          end)
        (Obs.Trace_query.chunk_updates r.Sim.Run_result.trace);
      let table =
        Report.Table.create
          ~title:(Printf.sprintf "Figure 12 (%s): per-row non-zeros vs AC chunk size" name)
          ~columns:[ "row range"; "avg nnz/row"; "avg AC chunk"; "updates" ]
      in
      for b = 0 to buckets - 1 do
        let lo = b * n / buckets and hi = ((b + 1) * n / buckets) - 1 in
        let nnz = ref 0 in
        for i = lo to hi do
          nnz := !nnz + Workloads.Matrix_gen.nnz_of_row matrix i
        done;
        let rows = hi - lo + 1 in
        let avg_nnz = Float.of_int !nnz /. Float.of_int (Stdlib.max 1 rows) in
        let avg_chunk =
          if chunk_cnt.(b) = 0 then 0.0 else chunk_sum.(b) /. Float.of_int chunk_cnt.(b)
        in
        Report.Table.add_row table
          [
            Printf.sprintf "%d..%d" lo hi;
            Report.Table.cell_f avg_nnz;
            Report.Table.cell_f avg_chunk;
            Report.Table.cell_i chunk_cnt.(b);
          ]
      done;
      Buffer.add_string buf (Report.Table.render table);
      Buffer.add_char buf '\n')
    programs;
  Buffer.contents buf

let figure = Figure.make ~id:"fig12" ~caption:"Visualization of Adaptive Chunking" render
