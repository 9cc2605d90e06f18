(* Robustness sweep: heartbeat-delivery drop rate 0..50% against each
   signaling mechanism. Software polling never sends deliveries, so it is
   the flat control; the interrupt mechanisms lose promotion opportunities
   as beats are dropped, and at high drop rates the starvation watchdog
   downgrades starved workers to software polling, which bounds the
   degradation. Outputs stay equal to the sequential reference at every
   drop rate — faults change performance, never results. *)

let drop_rates = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ]

let benchmarks = [ "plus-reduce-array"; "spmv-powerlaw"; "mandelbrot" ]

(* Each mechanism's runtime for a benchmark's static chunk. *)
let mechanisms =
  [
    ("software polling (control)", "poll", fun _chunk -> Hbc_core.Rt_config.hbc);
    ("kernel module", "km", fun chunk -> Hbc_core.Rt_config.hbc_kernel_module ~chunk);
    ("ping thread", "ping", fun chunk -> Hbc_core.Rt_config.hbc_ping_thread ~chunk);
  ]

let plan config rate =
  if rate = 0.0 then None
  else Some { Sim.Fault_plan.none with Sim.Fault_plan.beat_drop_prob = rate; seed = config.Harness.seed }

let run config entry short cfg rate =
  Harness.run config
    (Sched_run.Hbc (cfg entry.Workloads.Registry.tpal_chunk))
    ~request:(Hbc_core.Run_request.make ?fault_plan:(plan config rate) ())
    ~tag:(Printf.sprintf "fault-%s-%.0f" short (rate *. 100.))
    entry

let render config =
  let sections =
    List.map
      (fun (label, short, cfg) ->
        let table =
          Report.Table.create
            ~title:(Printf.sprintf "Fault sweep [%s]: speedup vs heartbeat drop rate" label)
            ~columns:
              ("benchmark"
              :: List.map (fun r -> Printf.sprintf "drop %.0f%%" (r *. 100.)) drop_rates
              @ [ "downgrades"; "slowdown" ])
        in
        List.iter
          (fun name ->
            let entry = Workloads.Registry.find name in
            let outcomes = List.map (run config entry short cfg) drop_rates in
            let speedups = List.map (fun o -> o.Harness.speedup) outcomes in
            let last = List.nth outcomes (List.length outcomes - 1) in
            let downgrades_cell =
              Harness.metric_cell last (fun r ->
                  Report.Table.cell_i (Sim.Run_result.downgrades r))
            in
            let s0 = List.nth speedups 0 in
            let smax = List.nth speedups (List.length speedups - 1) in
            let slowdown = if smax > 0. then s0 /. smax else infinity in
            Report.Table.add_row table
              ((name :: List.map (Harness.speedup_cell ~decimals:2) outcomes)
              @ [ downgrades_cell; Report.Table.cell_f ~decimals:2 slowdown ]))
          benchmarks;
        Report.Table.render table)
      mechanisms
  in
  String.concat "\n" sections

let figure =
  Figure.make ~id:"fault-sweep"
    ~caption:
      "Graceful degradation: per-mechanism speedup as the heartbeat drop rate sweeps 0-50%"
    render
