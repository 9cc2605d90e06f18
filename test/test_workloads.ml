(* Tests for the benchmark suite: generator invariants and, for every
   registered benchmark, agreement of the HBC and OpenMP executors with the
   sequential reference at a reduced scale. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let small = 0.12

(* ------------------------- matrix generator ----------------------- *)

let csr_invariants (m : Workloads.Matrix_gen.csr) =
  let n = m.Workloads.Matrix_gen.n in
  check_int "row_ptr length" (n + 1) (Array.length m.Workloads.Matrix_gen.row_ptr);
  check_int "starts at 0" 0 m.Workloads.Matrix_gen.row_ptr.(0);
  for i = 0 to n - 1 do
    check_bool "monotone" true
      (m.Workloads.Matrix_gen.row_ptr.(i) <= m.Workloads.Matrix_gen.row_ptr.(i + 1))
  done;
  check_int "col_ind sized" (Workloads.Matrix_gen.nnz m) (Array.length m.Workloads.Matrix_gen.col_ind);
  Array.iter (fun c -> check_bool "col in range" true (c >= 0 && c < n)) m.Workloads.Matrix_gen.col_ind

let arrowhead_pattern () =
  let m = Workloads.Matrix_gen.arrowhead ~n:500 in
  csr_invariants m;
  check_int "first row dense" 500 (Workloads.Matrix_gen.nnz_of_row m 0);
  for i = 1 to 499 do
    check_int "other rows: col0 + diagonal" 2 (Workloads.Matrix_gen.nnz_of_row m i)
  done;
  check_int "total" (500 + (2 * 499)) (Workloads.Matrix_gen.nnz m)

let powerlaw_skew_and_avg () =
  let n = 4_000 in
  let m = Workloads.Matrix_gen.powerlaw ~reverse:false ~n ~avg_nnz:20 ~seed:3 in
  csr_invariants m;
  let avg = Float.of_int (Workloads.Matrix_gen.nnz m) /. Float.of_int n in
  check_bool "average near target" true (avg > 12.0 && avg < 30.0);
  check_bool "sorted descending" true
    (Workloads.Matrix_gen.nnz_of_row m 0 >= Workloads.Matrix_gen.nnz_of_row m (n - 1));
  check_bool "heavy head" true (Workloads.Matrix_gen.nnz_of_row m 0 > 40);
  let r = Workloads.Matrix_gen.powerlaw ~reverse:true ~n ~avg_nnz:20 ~seed:3 in
  check_bool "reverse ascending" true
    (Workloads.Matrix_gen.nnz_of_row r 0 <= Workloads.Matrix_gen.nnz_of_row r (n - 1))

let random_uniform_rows () =
  let m = Workloads.Matrix_gen.random_uniform ~n:1_000 ~nnz_per_row:16 ~seed:4 in
  csr_invariants m;
  for i = 0 to 999 do
    check_int "uniform" 16 (Workloads.Matrix_gen.nnz_of_row m i)
  done

let dominant_diagonal () =
  let m0 = Workloads.Matrix_gen.powerlaw ~reverse:false ~n:300 ~avg_nnz:6 ~seed:5 in
  let m = Workloads.Matrix_gen.with_dominant_diagonal m0 in
  csr_invariants m;
  for i = 0 to 299 do
    let lo = m.Workloads.Matrix_gen.row_ptr.(i) and hi = m.Workloads.Matrix_gen.row_ptr.(i + 1) in
    let diag = ref 0.0 and off = ref 0.0 in
    for k = lo to hi - 1 do
      if m.Workloads.Matrix_gen.col_ind.(k) = i then diag := !diag +. m.Workloads.Matrix_gen.vals.(k)
      else off := !off +. Float.abs m.Workloads.Matrix_gen.vals.(k)
    done;
    check_bool "dominant" true (!diag > !off)
  done

let spmv_program_matches_reference () =
  let program =
    Workloads.Spmv.make_program ~name:"ref-check" ~make_matrix:(fun () ->
        Workloads.Matrix_gen.powerlaw ~reverse:false ~n:2_000 ~avg_nnz:10 ~seed:6)
  in
  let env = program.Ir.Program.make_env () in
  let expected = Array.make env.Workloads.Spmv.matrix.Workloads.Matrix_gen.n 0.0 in
  Workloads.Matrix_gen.spmv_reference env.Workloads.Spmv.matrix ~x:env.Workloads.Spmv.x ~y:expected;
  let r = Baselines.Serial_exec.run_program program in
  let env2 = program.Ir.Program.make_env () in
  Workloads.Matrix_gen.spmv_reference env2.Workloads.Spmv.matrix ~x:env2.Workloads.Spmv.x ~y:env2.Workloads.Spmv.y;
  Alcotest.(check (float 1e-6)) "checksums equal"
    (Workloads.Workload_util.checksum env2.Workloads.Spmv.y)
    r.Sim.Run_result.fingerprint

(* -------------------------- tensor / graph ------------------------ *)

let tensor_invariants () =
  let t = Workloads.Tensor.generate ~ni:800 ~avg_fibers:5 ~avg_nnz:7 ~nk:512 ~seed:7 in
  check_int "fiber_ptr len" 801 (Array.length t.Workloads.Tensor.fiber_ptr);
  check_bool "fibers positive" true (Workloads.Tensor.nfibers t > 800);
  check_bool "nnz positive" true (Workloads.Tensor.nnz t > Workloads.Tensor.nfibers t / 2);
  Array.iter (fun k -> check_bool "k in range" true (k >= 0 && k < 512)) t.Workloads.Tensor.nnz_k;
  (* reference agrees with the ttv program *)
  let v = Array.init 4096 (fun i -> Float.of_int (i mod 5) /. 5.0) in
  ignore v

let graph_invariants () =
  let g = Workloads.Graph.powerlaw ~n:3_000 ~avg_deg:10 ~alpha:1.6 ~seed:8 in
  check_int "in_ptr len" 3_001 (Array.length g.Workloads.Graph.in_ptr);
  Array.iter (fun s -> check_bool "src in range" true (s >= 0 && s < 3_000)) g.Workloads.Graph.in_src;
  Array.iter (fun d -> check_bool "outdeg >= 1" true (d >= 1)) g.Workloads.Graph.out_deg;
  let avg = Float.of_int (Workloads.Graph.edges g) /. 3_000.0 in
  check_bool "avg degree near target" true (avg > 6.0 && avg < 15.0);
  let maxdeg = ref 0 in
  for v = 0 to 2_999 do
    maxdeg := Stdlib.max !maxdeg (Workloads.Graph.in_degree g v)
  done;
  check_bool "heavy tail" true (!maxdeg > 50)

let mandelbrot_escape () =
  let v = Workloads.Mandelbrot.input2 ~scale:0.2 in
  (* far outside the set: escapes immediately; the cap binds inside *)
  check_bool "edge pixel escapes fast" true
    (Workloads.Mandelbrot.escape_iterations v ~px:0 ~py:0 < 4);
  let v1 = Workloads.Mandelbrot.input1 ~scale:0.2 in
  let deep = Workloads.Mandelbrot.escape_iterations v1 ~px:(v1.Workloads.Mandelbrot.width / 2)
      ~py:(v1.Workloads.Mandelbrot.height / 2)
  in
  check_bool "zoomed pixel is expensive" true (deep > 50)

(* ------------------ every benchmark vs sequential ----------------- *)

let registry_complete () =
  check_int "18 benchmarks" 18 (List.length Workloads.Registry.all);
  check_int "13 irregular" 13 (List.length (Workloads.Registry.irregular_set ()));
  check_int "5 regular" 5 (List.length (Workloads.Registry.regular_set ()));
  check_int "8 in TPAL suite" 8 (List.length (Workloads.Registry.tpal_set ()));
  check_int "5 manual irregular" 5 (List.length (Workloads.Registry.manual_irregular_set ()))

let benchmark_case (entry : Workloads.Registry.entry) =
  Alcotest.test_case entry.Workloads.Registry.name `Slow (fun () ->
      let (Ir.Program.Any p) = entry.Workloads.Registry.make small in
      let seq = Baselines.Serial_exec.run_program p in
      check_bool "nonzero work" true (seq.Sim.Run_result.work_cycles > 0);
      let hbc =
        Sched_run.run (Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 16 }) p
      in
      check_bool "hbc output matches"
        true
        (Sim.Run_result.fingerprints_close ~tol:1e-7 seq hbc);
      let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ~workers:16 ()) p in
      check_bool "omp output matches" true (Sim.Run_result.fingerprints_close ~tol:1e-7 seq omp);
      let tpal =
        Sched_run.run
          (Sched_run.Hbc
             { (Hbc_core.Rt_config.tpal ~chunk:entry.Workloads.Registry.tpal_chunk) with workers = 16 })
          p
      in
      check_bool "tpal output matches" true (Sim.Run_result.fingerprints_close ~tol:1e-7 seq tpal))

let registry_metadata_sane () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      check_bool (e.Workloads.Registry.name ^ " chunk positive") true
        (e.Workloads.Registry.tpal_chunk >= 1);
      check_bool (e.Workloads.Registry.name ^ " source named") true
        (String.length e.Workloads.Registry.source > 0);
      (* names resolve through find *)
      check_bool "find roundtrip" true
        (Workloads.Registry.find e.Workloads.Registry.name == e))
    Workloads.Registry.all;
  check_bool "unknown raises" true
    (try
       ignore (Workloads.Registry.find "no-such-benchmark");
       false
     with Not_found -> true)

let scaled_inputs_shrink () =
  let (Ir.Program.Any small_p) = (Workloads.Registry.find "plus-reduce-array").make 0.05 in
  let (Ir.Program.Any big_p) = (Workloads.Registry.find "plus-reduce-array").make 0.2 in
  let w p = (Baselines.Serial_exec.run_program p).Sim.Run_result.work_cycles in
  check_bool "scale grows work" true (w big_p > 2 * w small_p)

let suite =
  [
    Alcotest.test_case "matrix: arrowhead pattern" `Quick arrowhead_pattern;
    Alcotest.test_case "matrix: powerlaw skew" `Quick powerlaw_skew_and_avg;
    Alcotest.test_case "matrix: uniform rows" `Quick random_uniform_rows;
    Alcotest.test_case "matrix: dominant diagonal" `Quick dominant_diagonal;
    Alcotest.test_case "spmv program = reference product" `Quick spmv_program_matches_reference;
    Alcotest.test_case "tensor generator invariants" `Quick tensor_invariants;
    Alcotest.test_case "graph generator invariants" `Quick graph_invariants;
    Alcotest.test_case "mandelbrot escape behaviour" `Quick mandelbrot_escape;
    Alcotest.test_case "registry sets" `Quick registry_complete;
    Alcotest.test_case "registry metadata" `Quick registry_metadata_sane;
    Alcotest.test_case "scale parameter" `Quick scaled_inputs_shrink;
  ]
  @ List.map benchmark_case Workloads.Registry.all
