(* Fig. 9: the three heartbeat signaling mechanisms under the full HBC
   runtime. Expected shape: the ping thread loses measurably (it misses a
   large share of beats); the kernel module and software polling are
   comparable — the paper's counter-intuitive headline result. *)

let render config =
  let entries = Workloads.Registry.tpal_set () in
  let table =
    Report.Table.create
      ~title:"Figure 9: speedup by heartbeat mechanism (interrupt ping thread / kernel module / software polling)"
      ~columns:
        [ "benchmark"; "ping thread"; "kernel module"; "software polling"; "ping missed %" ]
  in
  let pings = ref [] and kms = ref [] and polls = ref [] in
  List.iter
    (fun entry ->
      let chunk = entry.Workloads.Registry.tpal_chunk in
      let ping =
        Harness.run config ~tag:"hbc-ping"
          (Sched_run.Hbc (Hbc_core.Rt_config.hbc_ping_thread ~chunk))
          entry
      in
      let km =
        Harness.run config ~tag:"hbc-km"
          (Sched_run.Hbc (Hbc_core.Rt_config.hbc_kernel_module ~chunk))
          entry
      in
      let poll = Harness.run config Sched_run.hbc entry in
      pings := ping :: !pings;
      kms := km :: !kms;
      polls := poll :: !polls;
      let missed_cell =
        Harness.metric_cell ping (fun r ->
            let m = r.Sim.Run_result.metrics in
            Report.Table.cell_f
              (100.0
              *. Float.of_int m.Sim.Metrics.heartbeats_missed
              /. Float.of_int (Stdlib.max 1 m.Sim.Metrics.heartbeats_generated)))
      in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          Harness.speedup_cell ping;
          Harness.speedup_cell km;
          Harness.speedup_cell poll;
          missed_cell;
        ])
    entries;
  Report.Table.add_separator table;
  Report.Table.add_row table (Harness.geomean_row ~label:"geomean" [ !pings; !kms; !polls ]);
  Report.Table.render table

let figure =
  Figure.make ~id:"fig9" ~caption:"Software polling is as good as interrupt-based mechanisms"
    render
