(* Fig. 5: percentage of parallelism promotions generated at each loop
   nesting level under HBC. Flat benchmarks promote only at level 0; nested
   ones (spmv, mandelbulb, cg, ttv/ttm, graph kernels) split inner loops
   too, showing that the best granularity is input-dependent. *)

let render config =
  let entries = Workloads.Registry.irregular_set () in
  let table =
    Report.Table.create ~title:"Figure 5: parallelism promotions generated per nesting level (%)"
      ~columns:[ "benchmark"; "level 0"; "level 1"; "level 2"; "level 3"; "promotions" ]
  in
  List.iter
    (fun entry ->
      let hbc = Harness.run config Sched_run.hbc entry in
      let shares = Sim.Metrics.promotion_share_by_level hbc.Harness.result.Sim.Run_result.metrics in
      let cell l = Report.Table.cell_f ~decimals:2 shares.(l) in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          cell 0;
          cell 1;
          cell 2;
          cell 3;
          Report.Table.cell_i hbc.Harness.result.Sim.Run_result.metrics.Sim.Metrics.promotions;
        ])
    entries;
  Report.Table.render table

let figure =
  Figure.make ~id:"fig5" ~caption:"Parallelism is generated at different loop nesting levels"
    render
