(* Tests for the sequential reference and the OpenMP-like runtime. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

type env = { n : int; out : float array; mutable sum : float }

let flat_reduce_program ~n =
  let root =
    Ir.Nest.loop ~name:"reduce"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~commit:(fun e (ctxs : Ir.Ctx.set) -> e.sum <- ctxs.(0).Ir.Ctx.locals.Ir.Locals.floats.(0))
      ~bounds:(fun e _ -> (0, e.n))
      [
        Ir.Nest.stmt ~name:"add" (fun _ ctxs i ->
            let l = ctxs.(0).Ir.Ctx.locals in
            l.Ir.Locals.floats.(0) <- l.Ir.Locals.floats.(0) +. Float.of_int ((i mod 9) + 1);
            5);
      ]
  in
  Ir.Program.v ~name:"flat-reduce"
    ~make_env:(fun () -> { n; out = [||]; sum = 0.0 })
    ~nests:[ root ]
    ~driver:(fun _ cpu -> cpu.Ir.Program.exec root)
    ~fingerprint:(fun e -> e.sum)
    ()

let nested_program ~rows ~cols =
  let inner =
    Ir.Nest.loop ~name:"inner_np"
      ~bounds:(fun _ _ -> (0, cols))
      [
        Ir.Nest.stmt ~name:"w" (fun e (ctxs : Ir.Ctx.set) j ->
            let i = ctxs.(0).Ir.Ctx.lo in
            e.out.((i * cols) + j) <- Float.of_int ((i * j) mod 17);
            6);
      ]
  in
  let root = Ir.Nest.loop ~name:"outer_np" ~bounds:(fun e _ -> (0, e.n)) [ Ir.Nest.Nested inner ] in
  Ir.Program.v ~name:"nested-write"
    ~make_env:(fun () -> { n = rows; out = Array.make (rows * cols) 0.0; sum = 0.0 })
    ~nests:[ root ]
    ~driver:(fun _ cpu -> cpu.Ir.Program.exec root)
    ~fingerprint:(fun e -> Array.fold_left ( +. ) 0.0 e.out)
    ()

let seq_makespan_equals_work () =
  let p = flat_reduce_program ~n:10_000 in
  let r = Baselines.Serial_exec.run_program p in
  check_int "makespan = work" r.Sim.Run_result.work_cycles r.Sim.Run_result.makespan;
  check_int "pure work" 50_000 r.Sim.Run_result.work_cycles

let omp_static_correct () =
  let p = nested_program ~rows:300 ~cols:80 in
  let seq = Baselines.Serial_exec.run_program p in
  let omp = Baselines.Openmp.run_program (Baselines.Openmp.static ()) p in
  check_bool "same output" true (Sim.Run_result.fingerprints_close seq omp);
  check_bool "faster" true (omp.Sim.Run_result.makespan < seq.Sim.Run_result.makespan)

let omp_dynamic_correct_chunks () =
  let p = nested_program ~rows:300 ~cols:80 in
  let seq = Baselines.Serial_exec.run_program p in
  List.iter
    (fun chunk ->
      let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ~chunk ()) p in
      check_bool (Printf.sprintf "chunk %d" chunk) true (Sim.Run_result.fingerprints_close seq omp))
    [ 1; 2; 8; 64 ]

let omp_reduction_combines_team () =
  let p = flat_reduce_program ~n:20_000 in
  let seq = Baselines.Serial_exec.run_program p in
  let omp = Baselines.Openmp.run_program (Baselines.Openmp.static ()) p in
  check_bool "reduced across workers" true (Sim.Run_result.fingerprints_close seq omp)

let omp_serial_nest_honored () =
  let rootname = "reduce" in
  let p = flat_reduce_program ~n:5_000 in
  let p = { p with Ir.Program.omp_serial_nests = [ rootname ] } in
  let omp = Baselines.Openmp.run_program (Baselines.Openmp.static ()) p in
  let seq = Baselines.Serial_exec.run_program p in
  check_bool "correct" true (Sim.Run_result.fingerprints_close seq omp);
  (* serialized: no parallel speedup at all (only driver runs it) *)
  check_bool "as slow as sequential" true
    (omp.Sim.Run_result.makespan >= seq.Sim.Run_result.makespan)

let omp_nested_mode_explodes () =
  let p = nested_program ~rows:400 ~cols:8 in
  let seq = Baselines.Serial_exec.run_program p in
  let outer = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) p in
  let nested =
    Baselines.Openmp.run_program
      { (Baselines.Openmp.dynamic ()) with Baselines.Openmp.nested = Baselines.Openmp.All_doall }
      p
  in
  check_bool "nested output still correct" true (Sim.Run_result.fingerprints_close seq nested);
  check_bool "nested regions much slower" true
    (nested.Sim.Run_result.makespan > 3 * outer.Sim.Run_result.makespan)

let omp_nested_dnf_cap () =
  let p = nested_program ~rows:2_000 ~cols:3 in
  let seq = Baselines.Serial_exec.run_program p in
  let nested =
    Baselines.Openmp.run_program
      ~request:(Hbc_core.Run_request.make ~max_cycles:(2 * seq.Sim.Run_result.work_cycles) ())
      { (Baselines.Openmp.dynamic ()) with Baselines.Openmp.nested = Baselines.Openmp.All_doall }
      p
  in
  check_bool "did not finish" true nested.Sim.Run_result.dnf

let omp_deterministic () =
  let p = nested_program ~rows:200 ~cols:50 in
  let a = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) p in
  let b = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) p in
  check_int "same makespan" a.Sim.Run_result.makespan b.Sim.Run_result.makespan

let omp_guided_correct_and_coarser () =
  let p = nested_program ~rows:400 ~cols:60 in
  let seq = Baselines.Serial_exec.run_program p in
  let guided = Baselines.Openmp.run_program (Baselines.Openmp.guided ~workers:16 ()) p in
  check_bool "correct" true (Sim.Run_result.fingerprints_close seq guided);
  let dyn1 = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ~workers:16 ()) p in
  (* guided grabs far fewer, bigger chunks: fewer dispatch events *)
  check_bool "fewer dispatches than dynamic(1)" true
    (Sim.Metrics.overhead_of guided.Sim.Run_result.metrics Sim.Metrics.Omp_dispatch
    < Sim.Metrics.overhead_of dyn1.Sim.Run_result.metrics Sim.Metrics.Omp_dispatch / 2)

let tpal_wrapper () =
  let p = nested_program ~rows:300 ~cols:60 in
  let seq = Baselines.Serial_exec.run_program p in
  let tpal = Sched_run.run (Sched_run.tpal ~chunk:32) p in
  check_bool "correct" true (Sim.Run_result.fingerprints_close seq tpal)

let suite =
  [
    Alcotest.test_case "sequential: makespan = work" `Quick seq_makespan_equals_work;
    Alcotest.test_case "omp static: correct" `Quick omp_static_correct;
    Alcotest.test_case "omp dynamic: chunk sweep correct" `Quick omp_dynamic_correct_chunks;
    Alcotest.test_case "omp: team reduction" `Quick omp_reduction_combines_team;
    Alcotest.test_case "omp: serial-nest pragma" `Quick omp_serial_nest_honored;
    Alcotest.test_case "omp: nested regions explode" `Quick omp_nested_mode_explodes;
    Alcotest.test_case "omp: nested DNF cap" `Quick omp_nested_dnf_cap;
    Alcotest.test_case "omp: deterministic" `Quick omp_deterministic;
    Alcotest.test_case "omp guided: correct, coarser" `Quick omp_guided_correct_and_coarser;
    Alcotest.test_case "tpal wrapper correct" `Quick tpal_wrapper;
  ]
