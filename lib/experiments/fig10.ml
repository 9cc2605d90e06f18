(* Fig. 10: mandelbrot run time across static chunk sizes 2^0..2^10 for the
   two inputs. Expected shape: the high-latency input is best at chunk 1 and
   degrades as chunks grow; the low-latency input is the mirror image. *)

let chunks = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let render config =
  let scale = config.Harness.scale in
  (* A custom (non-registry) executor sweep, still journaled and watchdogged
     like any other trial via Harness.trial. *)
  let run_view view tag chunk =
    let rt = { Hbc_core.Rt_config.hbc with chunk = Hbc_core.Compiled.Static chunk } in
    let engine =
      Sched_run.with_machine ~workers:config.Harness.workers ~seed:config.Harness.seed
        (Sched_run.Hbc rt)
    in
    match
      Harness.trial config ~bench:tag
        ~tag:(Printf.sprintf "chunk-%d" chunk)
        ~signature:(Sched_run.signature engine)
        (fun () ->
          let program = Workloads.Mandelbrot.program_of_view ~name:tag view in
          Sched_run.run ~request:(Harness.guarded config Hbc_core.Run_request.default) engine
            program)
    with
    | Ok r ->
        Report.Table.cell_f ~decimals:3
          (1000.0
          *. Sim.Cost_model.seconds_of_cycles rt.Hbc_core.Rt_config.cost
               r.Sim.Run_result.makespan)
    | Error e -> Trial_error.cell e
  in
  let table =
    Report.Table.create
      ~title:"Figure 10: mandelbrot run time (simulated milliseconds) vs static chunk size"
      ~columns:[ "chunk"; "input 1 (high latency)"; "input 2 (low latency)" ]
  in
  let v1 = Workloads.Mandelbrot.input1 ~scale and v2 = Workloads.Mandelbrot.input2 ~scale in
  List.iter
    (fun chunk ->
      Report.Table.add_row table
        [
          Report.Table.cell_i chunk;
          run_view v1 "mandelbrot-in1" chunk;
          run_view v2 "mandelbrot-in2" chunk;
        ])
    chunks;
  Report.Table.render table

let figure =
  Figure.make ~id:"fig10" ~caption:"Optimal chunk size for mandelbrot is input-dependent" render
