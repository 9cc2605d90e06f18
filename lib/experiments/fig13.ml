(* Fig. 13: heartbeat detection rate under AC as the target polling count
   sweeps 0..20. Expected shape: a too-low target misses a large share of
   beats (down to ~50% for spmv-powerlaw); a target of 4 or more detects
   over 99%. *)

let targets = [ 1; 2; 3; 4; 6; 8; 12; 16; 20 ]

(* The detection rate is computed from the captured heartbeat events rather
   than the metrics counters; a keep filter drops everything else so the
   journaled trace stays proportional to the beat count. *)
let heartbeat_request () =
  Hbc_core.Run_request.make
    ~trace:
      (Obs.Trace.Sink.stream
         ~keep:(function
           | Obs.Trace.Heartbeat_generated | Obs.Trace.Heartbeat_detected
           | Obs.Trace.Heartbeat_missed ->
               true
           | _ -> false)
         ())
    ()

let render config =
  let entries = Workloads.Registry.tpal_set () in
  let table =
    Report.Table.create
      ~title:"Figure 13: heartbeat detection rate (%) vs AC target polling count"
      ~columns:("benchmark" :: List.map (fun t -> Printf.sprintf "target %d" t) targets)
  in
  List.iter
    (fun entry ->
      let cells =
        List.map
          (fun target ->
            let o =
              Harness.run config
                (Sched_run.Hbc { Hbc_core.Rt_config.hbc with ac_target_polls = target })
                ~request:(heartbeat_request ())
                ~tag:(Printf.sprintf "ac-target-%d" target)
                entry
            in
            Harness.metric_cell o (fun r ->
                Report.Table.cell_f ~decimals:2
                  (Obs.Trace_query.detection_rate r.Sim.Run_result.trace)))
          targets
      in
      Report.Table.add_row table (entry.Workloads.Registry.name :: cells))
    entries;
  Report.Table.render table

let figure =
  Figure.make ~id:"fig13" ~caption:"Heartbeat detection rate via AC as the target polling count varies"
    render
