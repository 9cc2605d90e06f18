(* Fig. 8: software-polling overhead under the three chunking regimes, with
   promotions disabled. Expected shape: no chunking costs up to several
   hundred percent on fine-grained loops (the paper's 7.5x worst case);
   static chunking cuts it to a few percent; adaptive chunking is best. *)

let render config =
  (* Overheads are ratios, so a smaller input keeps this figure fast even
     with a poll at every iteration. *)
  let config = { config with Harness.workers = 1; scale = config.Harness.scale *. 0.3 } in
  let entries = Workloads.Registry.tpal_set () in
  let table =
    Report.Table.create
      ~title:"Figure 8: software polling overhead by chunking mechanism (promotions disabled)"
      ~columns:[ "benchmark"; "no chunking"; "static chunking"; "adaptive chunking" ]
  in
  List.iter
    (fun entry ->
      let run chunk tag =
        (Harness.run config
           (Sched_run.Hbc { Hbc_core.Rt_config.hbc with promotion = false; chunk })
           ~tag entry)
          .Harness.result
      in
      let none = run Hbc_core.Compiled.No_chunking "poll-none" in
      let static =
        run (Hbc_core.Compiled.Static entry.Workloads.Registry.tpal_chunk) "poll-static"
      in
      let adaptive = run Hbc_core.Compiled.Adaptive "poll-adaptive" in
      (* The paper plots the overhead of the polling itself (the injected
         poll instructions and their guard branches), not the rest of the
         compiled-in machinery, which Fig. 7 already breaks down. *)
      let poll_pct (r : Sim.Run_result.t) =
        let m = r.Sim.Run_result.metrics in
        100.0
        *. Float.of_int
             (Sim.Metrics.overhead_of m Sim.Metrics.Poll
              + Sim.Metrics.overhead_of m Sim.Metrics.Promotion_branch)
        /. Float.of_int (Stdlib.max 1 r.Sim.Run_result.work_cycles)
      in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          Report.Table.cell_pct (poll_pct none);
          Report.Table.cell_pct (poll_pct static);
          Report.Table.cell_pct (poll_pct adaptive);
        ])
    entries;
  Report.Table.render table

let figure =
  Figure.make ~id:"fig8" ~caption:"Software polling overhead with different chunking mechanisms"
    render
