(* Fig. 7: overhead of the HBC binaries over the sequential baseline with
   promotions disabled (so only the compiled-in machinery costs remain), and
   the breakdown of the software-polling configuration by compilation
   component. Expected shape: spmv-arrowhead ~+58% and spmv-powerlaw ~+22%
   dominated by chunk-size transferring; everything else below ~10%. *)

let overhead_run config entry cfg tag =
  let o =
    Harness.run config ~tag (Sched_run.Hbc { cfg with Hbc_core.Rt_config.promotion = false }) entry
  in
  o.Harness.result

let pct_of base part = 100.0 *. Float.of_int part /. Float.of_int (Stdlib.max 1 base)

let render config =
  let config = { config with Harness.workers = 1 } in
  let entries = Workloads.Registry.tpal_set () in
  let table =
    Report.Table.create
      ~title:
        "Figure 7: overhead over sequential baseline (promotions disabled), with the software-polling breakdown"
      ~columns:
        [
          "benchmark";
          "TPAL";
          "HBC interrupt (KM)";
          "HBC polling";
          "| outline";
          "closure";
          "chunking";
          "prom.branch";
          "chunk-transfer";
          "AC polling";
        ]
  in
  List.iter
    (fun entry ->
      let chunk = entry.Workloads.Registry.tpal_chunk in
      let tpal = overhead_run config entry (Hbc_core.Rt_config.tpal ~chunk) "ovh-tpal" in
      let km = overhead_run config entry (Hbc_core.Rt_config.hbc_kernel_module ~chunk) "ovh-km" in
      let poll = overhead_run config entry Hbc_core.Rt_config.hbc "ovh-poll" in
      let m = poll.Sim.Run_result.metrics in
      let work = poll.Sim.Run_result.work_cycles in
      let component k = Report.Table.cell_pct (pct_of work (Sim.Metrics.overhead_of m k)) in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          Report.Table.cell_pct (Sim.Run_result.overhead_pct tpal);
          Report.Table.cell_pct (Sim.Run_result.overhead_pct km);
          Report.Table.cell_pct (Sim.Run_result.overhead_pct poll);
          component Sim.Metrics.Outline_call;
          component Sim.Metrics.Closure;
          component Sim.Metrics.Chunking;
          component Sim.Metrics.Promotion_branch;
          component Sim.Metrics.Chunk_transfer;
          component Sim.Metrics.Poll;
        ])
    entries;
  Report.Table.render table

let figure =
  Figure.make ~id:"fig7" ~caption:"Overhead of HBC (with and without software polling) and TPAL"
    render
