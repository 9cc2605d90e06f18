(* Graph analytics: the GraphIt-style DensePull kernels on a power-law graph
   you construct yourself, showing how nested-parallel pull loops (vertices
   over incoming edges) behave under heartbeat scheduling when degree skew
   makes the inner trip counts wildly irregular.

   Run with: dune exec examples/graph_analytics.exe *)

let () =
  let scale = 0.5 in
  let kernels =
    [
      ("pr (PageRank, 5 rounds)", Workloads.Graph_kernels.pr ~scale);
      ("bfs (frontier rounds)", Workloads.Graph_kernels.bfs ~scale);
      ("cc (label propagation)", Workloads.Graph_kernels.cc ~scale);
      ("sssp (Bellman-Ford rounds)", Workloads.Graph_kernels.sssp ~scale);
    ]
  in
  (* Inspect the input skew first. *)
  let g = Workloads.Graph.twitter_like ~scale in
  let max_deg = ref 0 and sum = ref 0 in
  for v = 0 to g.Workloads.Graph.n - 1 do
    let d = Workloads.Graph.in_degree g v in
    if d > !max_deg then max_deg := d;
    sum := !sum + d
  done;
  Printf.printf "graph: %d vertices, %d edges, avg in-degree %.1f, max in-degree %d\n\n"
    g.Workloads.Graph.n (Workloads.Graph.edges g)
    (Float.of_int !sum /. Float.of_int g.Workloads.Graph.n)
    !max_deg;
  List.iter
    (fun (name, program) ->
      let seq = Baselines.Serial_exec.run_program program in
      let hbc = Sched_run.run Sched_run.hbc program in
      let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) program in
      Printf.printf "%-28s OpenMP %5.1fx | HBC %5.1fx | valid %b | promotions %d\n" name
        (Sim.Run_result.speedup ~baseline:seq omp)
        (Sim.Run_result.speedup ~baseline:seq hbc)
        (Sim.Run_result.fingerprints_close seq hbc)
        hbc.Sim.Run_result.metrics.Sim.Metrics.promotions)
    kernels
