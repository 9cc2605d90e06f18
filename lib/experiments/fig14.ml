(* Fig. 14: OpenMP dynamic scheduling with hand-tuned chunk sizes on the
   manually-written irregular benchmarks. Expected shape: growing the chunk
   degrades every benchmark except cg (whose tiny regular-ish rows amortize
   dispatch), so manual chunk tuning cannot rescue OpenMP. *)

let chunks = [ 1; 2; 4; 8; 16; 32 ]

let render config =
  let entries = Workloads.Registry.manual_irregular_set () in
  let table =
    Report.Table.create
      ~title:"Figure 14: OpenMP dynamic speedup vs chunk size (outermost loop only)"
      ~columns:("benchmark" :: List.map (fun c -> Printf.sprintf "chunk %d" c) chunks)
  in
  List.iter
    (fun entry ->
      let cells =
        List.map
          (fun chunk ->
            let o =
              Harness.run config
                (Sched_run.Openmp (Baselines.Openmp.dynamic ~chunk ()))
                ~tag:(Printf.sprintf "omp-dyn%d" chunk)
                entry
            in
            Harness.speedup_cell o)
          chunks
      in
      Report.Table.add_row table (entry.Workloads.Registry.name :: cells))
    entries;
  Report.Table.render table

let figure =
  Figure.make ~id:"fig14"
    ~caption:"OpenMP dynamic scheduling with varying chunk sizes, outermost loop parallelized"
    render
