(* Fig. 11: ten invocations of mandelbrot alternating the two inputs —
   static chunk sizes against adaptive chunking. Expected shape: every
   static choice compromises one input; AC beats them all (paper: 28x vs at
   most 17x). *)

let static_chunks = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ]

let render config =
  let scale = config.Harness.scale *. 0.7 in
  (* input 2's pixels are two orders of magnitude cheaper; give it a larger
     grid so each invocation carries comparable total work (as in the paper,
     where both inputs take seconds) and a static chunk must compromise. *)
  let v1 = Workloads.Mandelbrot.input1 ~scale in
  let v2 = Workloads.Mandelbrot.input2 ~scale:(scale *. 20.0) in
  (* five invocations of each input (the paper leaves the order open; grouped
     invocations are the common repeated-kernel scenario its text motivates) *)
  let views = [ v1; v1; v1; v1; v1; v2; v2; v2; v2; v2 ] in
  let program = Workloads.Mandelbrot.repeated ~scale ~views in
  (* Both the custom sequential reference and the chunk sweep run as
     journaled trials; if the reference itself fails, every cell degrades to
     its error instead of dividing by garbage. *)
  let compiled_baseline =
    Harness.trial config ~bench:"mandelbrot-mixed" ~tag:"seq"
      ~signature:(Sched_run.signature Sched_run.Serial) (fun () ->
        Sched_run.run Sched_run.Serial program)
  in
  let run tag chunk =
    match compiled_baseline with
    | Error e -> Trial_error.cell e
    | Ok baseline -> (
        let engine =
          Sched_run.with_machine ~workers:config.Harness.workers ~seed:config.Harness.seed
            (Sched_run.Hbc { Hbc_core.Rt_config.hbc with chunk })
        in
        match
          Harness.trial config ~bench:"mandelbrot-mixed" ~tag
            ~signature:(Sched_run.signature engine)
            (fun () ->
              Sched_run.run ~request:(Harness.guarded config Hbc_core.Run_request.default) engine
                program)
        with
        | Ok r -> Report.Table.cell_f (Sim.Run_result.speedup ~baseline r)
        | Error e -> Trial_error.cell e)
  in
  let table =
    Report.Table.create
      ~title:"Figure 11: speedup of 10 mixed-input mandelbrot invocations, static chunks vs AC"
      ~columns:[ "chunking"; "speedup" ]
  in
  List.iter
    (fun c ->
      Report.Table.add_row table
        [
          Printf.sprintf "static %d" c;
          run (Printf.sprintf "static-%d" c) (Hbc_core.Compiled.Static c);
        ])
    static_chunks;
  Report.Table.add_separator table;
  Report.Table.add_row table [ "adaptive (AC)"; run "ac" Hbc_core.Compiled.Adaptive ];
  Report.Table.render table

let figure =
  Figure.make ~id:"fig11"
    ~caption:"Static chunk size vs adapting the chunk size at run-time over repeated invocations"
    render
