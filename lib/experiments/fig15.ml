(* Fig. 15: OpenMP parallelizing the outermost loop only vs every DOALL loop
   (nested parallel regions). Expected shape: nested regions flood the
   runtime with team creations and task spawns — the spmv variants and
   mandelbulb do not finish (DNF = slower than twice the sequential time),
   mandelbrot collapses to ~1.5x. *)

let render config =
  let entries = Workloads.Registry.manual_irregular_set () in
  let table =
    Report.Table.create
      ~title:"Figure 15: OpenMP dynamic, outermost-only vs all DOALL loops parallelized"
      ~columns:[ "benchmark"; "outermost only"; "all DOALL loops" ]
  in
  List.iter
    (fun entry ->
      let outer =
        Harness.run ~tag:"omp-dyn1" config (Sched_run.Openmp (Baselines.Openmp.dynamic ())) entry
      in
      let base = Harness.baseline config entry in
      let nested =
        Harness.run config
          (Sched_run.Openmp
             { (Baselines.Openmp.dynamic ()) with nested = Baselines.Openmp.All_doall })
          ~request:(Hbc_core.Run_request.make ~max_cycles:(Harness.dnf_cap base) ())
          ~tag:"omp-nested" entry
      in
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          Harness.speedup_cell outer;
          Harness.speedup_cell nested;
        ])
    entries;
  Report.Table.render table

let figure =
  Figure.make ~id:"fig15"
    ~caption:"OpenMP parallelizing the outermost loop only vs all DOALL loops (DNF = did not finish)"
    render
