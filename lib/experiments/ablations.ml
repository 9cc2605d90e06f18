let speedup_cell o = Harness.speedup_cell ~decimals:1 o

let omp_static = Sched_run.Openmp (Baselines.Openmp.static ())

(* ----------------- leftover task: spawned vs inline ---------------- *)

let leftover_task config =
  let entries = Workloads.Registry.tpal_set () in
  let table =
    Report.Table.create
      ~title:"Ablation: leftover task as a third parallel task (HBC) vs inline on the critical path (TPAL)"
      ~columns:[ "benchmark"; "leftover spawned"; "leftover inline"; "spawn/inline" ]
  in
  List.iter
    (fun entry ->
      let spawned = Harness.run config Sched_run.hbc entry in
      let inline_ =
        Harness.run config
          (Sched_run.Hbc { Hbc_core.Rt_config.hbc with leftover = Hbc_core.Rt_config.Inline })
          ~tag:"abl-leftover-inline" entry
      in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          speedup_cell spawned;
          speedup_cell inline_;
          Report.Table.cell_f ~decimals:2
            (spawned.Harness.speedup /. Float.max 0.01 inline_.Harness.speedup);
        ])
    entries;
  Report.Table.render table

(* ------------- promotion policy: outer-first vs innermost ---------- *)

let promotion_policy config =
  let entries =
    [ "spmv-arrowhead"; "spmv-powerlaw"; "mandelbulb"; "ttv"; "pr" ]
    |> List.map Workloads.Registry.find
  in
  let table =
    Report.Table.create
      ~title:"Ablation: outer-loop-first promotion (the paper's policy) vs innermost-first"
      ~columns:[ "benchmark"; "outer-loop-first"; "innermost-first"; "outer/inner"; "tasks (outer)"; "tasks (inner)" ]
  in
  List.iter
    (fun entry ->
      let outer = Harness.run config Sched_run.hbc entry in
      let inner =
        Harness.run config
          (Sched_run.Hbc
             { Hbc_core.Rt_config.hbc with policy = Hbc_core.Rt_config.Innermost_first })
          ~tag:"abl-innermost" entry
      in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          speedup_cell outer;
          speedup_cell inner;
          Report.Table.cell_f ~decimals:2
            (outer.Harness.speedup /. Float.max 0.01 inner.Harness.speedup);
          Report.Table.cell_i
            outer.Harness.result.Sim.Run_result.metrics.Sim.Metrics.tasks_spawned;
          Report.Table.cell_i
            inner.Harness.result.Sim.Run_result.metrics.Sim.Metrics.tasks_spawned;
        ])
    entries;
  Report.Table.render table

(* ---------------------- chunk transferring ------------------------ *)

let chunk_transferring config =
  let entries =
    [ "spmv-arrowhead"; "spmv-powerlaw"; "spmv-random"; "ttv" ] |> List.map Workloads.Registry.find
  in
  let table =
    Report.Table.create
      ~title:"Ablation: chunk-size transferring across leaf invocations (on = HBC, off = TPAL-style)"
      ~columns:
        [ "benchmark"; "transferring on"; "transferring off"; "beats detected on"; "beats detected off" ]
  in
  List.iter
    (fun entry ->
      let on = Harness.run config Sched_run.hbc entry in
      let off =
        Harness.run config
          (Sched_run.Hbc { Hbc_core.Rt_config.hbc with chunk_transferring = false })
          ~tag:"abl-no-transfer" entry
      in
      let det o = o.Harness.result.Sim.Run_result.metrics.Sim.Metrics.heartbeats_detected in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          speedup_cell on;
          speedup_cell off;
          Report.Table.cell_i (det on);
          Report.Table.cell_i (det off);
        ])
    entries;
  Report.Table.render table

(* --------------- leftover enumeration: all pairs vs leaves --------- *)

let leftover_pairs config =
  let entries = [ "mandelbulb"; "ttv"; "ttm" ] |> List.map Workloads.Registry.find in
  let table =
    Report.Table.create
      ~title:"Ablation: leftover tasks for all (loop, ancestor) pairs vs Algorithm 1's leaves-only enumeration"
      ~columns:[ "benchmark"; "all pairs"; "leaves only" ]
  in
  List.iter
    (fun (entry : Workloads.Registry.entry) ->
      let all_pairs = Harness.run config Sched_run.hbc entry in
      let rt =
        { Hbc_core.Rt_config.hbc with workers = config.Harness.workers; seed = config.Harness.seed }
      in
      let leaves_cell =
        match
          Harness.trial config ~bench:entry.Workloads.Registry.name ~tag:"abl-leaves-only"
            ~signature:(Sched_run.signature (Sched_run.Hbc rt) ^ "+leaves-only")
            (fun () ->
              let (Ir.Program.Any p) = entry.Workloads.Registry.make config.Harness.scale in
              let compiled = Hbc_core.Pipeline.compile_program ~all_leftover_pairs:false p in
              Hbc_core.Executor.run_program
                ~request:(Harness.guarded config Hbc_core.Run_request.default)
                rt compiled)
        with
        | Ok r ->
            let base = Harness.baseline config entry in
            Report.Table.cell_f (Sim.Run_result.speedup ~baseline:base r)
        | Error e -> Trial_error.cell e
      in
      Report.Table.add_row table
        [ entry.Workloads.Registry.name; speedup_cell all_pairs; leaves_cell ])
    entries;
  Report.Table.render table

(* ---------------------- heartbeat rate sweep ---------------------- *)

let heartbeat_rate config =
  let entries = [ "spmv-powerlaw"; "mandelbrot"; "srad" ] |> List.map Workloads.Registry.find in
  let intervals = [ 7_500; 15_000; 30_000; 60_000; 120_000; 240_000 ] in
  let table =
    Report.Table.create
      ~title:"Sensitivity: heartbeat interval (cycles; default 30k, i.e. 1/10 of the paper's 100 us)"
      ~columns:("benchmark" :: List.map (fun h -> Printf.sprintf "H=%dk" (h / 1000)) intervals)
  in
  List.iter
    (fun entry ->
      let cells =
        List.map
          (fun h ->
            let o =
              Harness.run config
                (Sched_run.Hbc
                   {
                     Hbc_core.Rt_config.hbc with
                     cost = { Sim.Cost_model.default with heartbeat_interval = h };
                   })
                ~tag:(Printf.sprintf "abl-h%d" h) entry
            in
            speedup_cell o)
          intervals
      in
      Report.Table.add_row table (entry.Workloads.Registry.name :: cells))
    entries;
  Report.Table.render table

(* ------------------------- AC window ------------------------------ *)

let ac_window config =
  let entries = [ "spmv-powerlaw"; "mandelbrot"; "plus-reduce-array" ] |> List.map Workloads.Registry.find in
  let windows = [ 1; 2; 3; 4; 8 ] in
  let table =
    Report.Table.create
      ~title:"Sensitivity: AC window size (the paper reports any window >= 2 behaves the same)"
      ~columns:("benchmark" :: List.map (fun w -> Printf.sprintf "window %d" w) windows)
  in
  List.iter
    (fun entry ->
      let cells =
        List.map
          (fun w ->
            let o =
              Harness.run config
                (Sched_run.Hbc { Hbc_core.Rt_config.hbc with ac_window = w })
                ~tag:(Printf.sprintf "abl-w%d" w) entry
            in
            speedup_cell o)
          windows
      in
      Report.Table.add_row table (entry.Workloads.Registry.name :: cells))
    entries;
  Report.Table.render table

(* ----------------------- worker scaling --------------------------- *)

let worker_scaling config =
  let entries = [ "spmv-powerlaw"; "mandelbrot"; "pr" ] |> List.map Workloads.Registry.find in
  let counts = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  let table =
    Report.Table.create ~title:"Sensitivity: HBC speedup vs simulated core count"
      ~columns:("benchmark" :: List.map string_of_int counts)
  in
  List.iter
    (fun entry ->
      let cells =
        List.map
          (fun w ->
            let cfg = { config with Harness.workers = w } in
            speedup_cell (Harness.run cfg Sched_run.hbc entry))
          counts
      in
      Report.Table.add_row table (entry.Workloads.Registry.name :: cells))
    entries;
  Report.Table.render table

(* --------------------------- hybrid ------------------------------- *)

let hybrid config =
  let entries = Workloads.Registry.all in
  let table =
    Report.Table.create
      ~title:"Extension (Sec. 6.8's conclusion): hybrid static+heartbeat scheduler vs each policy alone"
      ~columns:[ "benchmark"; "class"; "OpenMP static"; "HBC"; "hybrid"; "hybrid picks" ]
  in
  let statics = ref [] and hbcs = ref [] and hybrids = ref [] in
  List.iter
    (fun (entry : Workloads.Registry.entry) ->
      let static = Harness.run config omp_static ~tag:"omp-static" entry in
      let hbc = Harness.run config Sched_run.hbc entry in
      let hybrid = if entry.Workloads.Registry.regular then static else hbc in
      statics := static :: !statics;
      hbcs := hbc :: !hbcs;
      hybrids := hybrid :: !hybrids;
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          (if entry.Workloads.Registry.regular then "regular" else "irregular");
          speedup_cell static;
          speedup_cell hbc;
          speedup_cell hybrid;
          (if entry.Workloads.Registry.regular then "static" else "heartbeat");
        ])
    entries;
  Report.Table.add_separator table;
  Report.Table.add_row table
    ("geomean" :: ""
    :: List.map
         (fun col ->
           let g, excluded =
             Report.Stats.geomean_excluding (List.map Harness.speedup_opt col)
           in
           if excluded = 0 then Report.Table.cell_f g
           else Printf.sprintf "%s (%d excl.)" (Report.Table.cell_f g) excluded)
         [ !statics; !hbcs; !hybrids ]);
  Report.Table.render table

(* --------------------- OpenMP schedule comparison ------------------ *)

let omp_schedules config =
  let entries =
    [ "mandelbrot"; "spmv-powerlaw"; "spmv-random"; "pr" ] |> List.map Workloads.Registry.find
  in
  let table =
    Report.Table.create
      ~title:"Baseline study: OpenMP schedules (static / dynamic,1 / guided) vs HBC"
      ~columns:[ "benchmark"; "static"; "dynamic(1)"; "guided"; "HBC" ]
  in
  List.iter
    (fun entry ->
      let static = Harness.run config omp_static ~tag:"omp-static" entry in
      let dynamic =
        Harness.run config (Sched_run.Openmp (Baselines.Openmp.dynamic ())) ~tag:"omp-dyn1" entry
      in
      let guided =
        Harness.run config (Sched_run.Openmp (Baselines.Openmp.guided ())) ~tag:"omp-guided" entry
      in
      let hbc = Harness.run config Sched_run.hbc entry in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          speedup_cell static;
          speedup_cell dynamic;
          speedup_cell guided;
          speedup_cell hbc;
        ])
    entries;
  Report.Table.render table

let all =
  [
    ("leftover-task", leftover_task);
    ("promotion-policy", promotion_policy);
    ("chunk-transferring", chunk_transferring);
    ("leftover-pairs", leftover_pairs);
    ("heartbeat-rate", heartbeat_rate);
    ("ac-window", ac_window);
    ("worker-scaling", worker_scaling);
    ("hybrid", hybrid);
    ("omp-schedules", omp_schedules);
  ]
