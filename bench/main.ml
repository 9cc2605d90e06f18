(* Benchmark harness.

   Report mode — `main.exe --report PATH [--label L]` runs the deterministic
   perf-gate suite (Benchgate.Suite: micro probes over the runtime
   primitives and hot paths, one tiny-scale macro probe per figure family)
   and writes a machine-readable Benchgate.Report JSON; CI diffs it against
   bench/baseline.json with `hbc_repro bench-diff`. Nothing else runs in
   this mode.

   Without --report — bechamel micro-benchmarks of the runtime primitives
   whose costs the simulator's cost model abstracts (deque operations,
   polls/AC, the perfect-hash leftover table, the rollforward compiler, the
   compilation pipeline itself, fork-join, the native pool), plus one
   Test.make per reproduced table/figure running a miniature configuration
   of that experiment. The figures themselves are `hbc_repro all`'s job. *)

open Bechamel
open Toolkit

let tiny = { Experiments.Harness.default_config with scale = 0.04; workers = 8 }

(* --------------------- micro-benchmarks -------------------------- *)

let bench_deque =
  Test.make ~name:"deque push/pop x64"
    (Staged.stage (fun () ->
         let d = Sim.Deque.create () in
         for i = 0 to 63 do
           Sim.Deque.push_bottom d i
         done;
         for _ = 0 to 31 do
           ignore (Sim.Deque.pop_bottom d)
         done;
         for _ = 0 to 31 do
           ignore (Sim.Deque.steal d)
         done))

let bench_rng =
  Test.make ~name:"rng zipf x64"
    (Staged.stage
       (let r = Sim.Sim_rng.create 1 in
        fun () ->
          for _ = 0 to 63 do
            ignore (Sim.Sim_rng.zipf r ~alpha:1.4 ~n:1000)
          done))

let bench_perfect_hash =
  let keys = List.init 24 (fun i -> (i, i / 2)) in
  let t = Hbc_core.Perfect_hash.build keys in
  Test.make ~name:"leftover table lookup x64"
    (Staged.stage (fun () ->
         for i = 0 to 63 do
           ignore (Hbc_core.Perfect_hash.lookup t (i mod 24, i mod 12))
         done))

let bench_ac =
  Test.make ~name:"adaptive chunking beat cycle"
    (Staged.stage
       (let ac = Sched.Adaptive_chunking.create ~target_polls:8 ~window:2 () in
        fun () ->
          for _ = 0 to 15 do
            Sched.Adaptive_chunking.on_poll ac
          done;
          ignore (Sched.Adaptive_chunking.on_heartbeat ac)))

let bench_membus =
  Test.make ~name:"membus serve x64"
    (Staged.stage
       (let b = Sim.Membus.create ~bytes_per_cycle:44.0 in
        let t = ref 0 in
        fun () ->
          for _ = 0 to 63 do
            t := !t + 100;
            ignore (Sim.Membus.serve b ~now:!t ~compute:80 ~bytes:512)
          done))

let bench_engine =
  Test.make ~name:"engine: 4 workers x100 advances"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create ~num_workers:4 () in
         Sim.Engine.run e (fun w ->
             for _ = 1 to 100 do
               Sim.Engine.advance e (w + 7)
             done)))

let spmv_nest_for_bench () =
  Ir.Program.single_nest
    (Workloads.Spmv.make_program ~name:"bench-nest" ~make_matrix:(fun () ->
         Workloads.Matrix_gen.arrowhead ~n:64))

let bench_pipeline =
  Test.make ~name:"HBC pipeline: compile spmv nest"
    (Staged.stage (fun () -> ignore (Hbc_core.Pipeline.compile_nest (spmv_nest_for_bench ()))))

let bench_rollforward =
  let listing =
    Hbc_core.Pseudo_asm.generate (Hbc_core.Pipeline.compile_nest (spmv_nest_for_bench ()))
  in
  Test.make ~name:"rollforward compiler (RFC)"
    (Staged.stage (fun () -> ignore (Hbc_core.Rollforward.compile listing)))

(* One miniature run per figure: these are the end-to-end units the full
   tables below are made of. *)
let bench_figure (f : Experiments.Figure.t) =
  Test.make ~name:(f.Experiments.Figure.id ^ " (miniature)")
    (Staged.stage (fun () ->
         Experiments.Harness.clear_cache ();
         ignore (f.Experiments.Figure.render tiny)))

let bench_fork_join =
  Test.make ~name:"fork-join: heartbeat fib(15)"
    (Staged.stage (fun () ->
         let rec fib ctx n =
           if n < 2 then n
           else begin
             let a, b =
               Hbc_core.Fork_join.fork2 ctx (fun c -> fib c (n - 1)) (fun c -> fib c (n - 2))
             in
             a + b
           end
         in
         let out = ref 0 in
         ignore
           (Hbc_core.Fork_join.run
              ~cfg:{ Hbc_core.Rt_config.default with workers = 4 }
              (fun ctx -> out := fib ctx 15))))

let bench_native_pool =
  Test.make ~name:"native domains: parallel_reduce 50k"
    (Staged.stage
       (let pool = Hb_parallel.Hb_par.create ~num_domains:2 () in
        at_exit (fun () -> Hb_parallel.Hb_par.shutdown pool);
        fun () ->
          ignore
            (Hb_parallel.Hb_par.parallel_reduce pool ~lo:0 ~hi:50_000 ~init:0
               ~body:(fun a i -> a + (i land 7))
               ~combine:( + ))))

let micro_tests =
  [
    bench_deque;
    bench_rng;
    bench_perfect_hash;
    bench_ac;
    bench_membus;
    bench_engine;
    bench_pipeline;
    bench_rollforward;
    bench_fork_join;
    bench_native_pool;
  ]

let run_bechamel tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~stabilize:false ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name est ->
          let ns =
            match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> Float.nan
          in
          Printf.printf "  %-44s %14.1f ns/run\n%!" name ns)
        results)
    tests

(* --report PATH [--label L] [--note K=V]...: emit the perf-gate report
   and exit. *)
let flag_value name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let flag_values name =
  let rec collect i acc =
    if i + 1 >= Array.length Sys.argv then List.rev acc
    else if Sys.argv.(i) = name then collect (i + 2) (Sys.argv.(i + 1) :: acc)
    else collect (i + 1) acc
  in
  collect 1 []

(* --suite selects which probe families the report runs. "macro" is the
   whole macro-scale gate set (figure families, the P-sweep, serving) so
   CI's micro and macro steps partition the full suite between them. *)
let suite_probes = function
  | "all" -> Benchgate.Suite.all ()
  | "micro" -> Benchgate.Suite.micro ()
  | "macro" -> Benchgate.Suite.macro () @ Benchgate.Suite.p_sweep () @ Benchgate.Suite.serve ()
  | "p-sweep" -> Benchgate.Suite.p_sweep ()
  | "serve" -> Benchgate.Suite.serve ()
  | s ->
      Printf.eprintf
        "unknown --suite %s (expected all | micro | macro | p-sweep | serve)\n" s;
      exit 2

let report_mode path =
  let label = Option.value (flag_value "--label") ~default:"dev" in
  let suite = Option.value (flag_value "--suite") ~default:"all" in
  let notes =
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
        | None -> (kv, ""))
      (flag_values "--note")
  in
  let probes = suite_probes suite in
  let report = Benchgate.Suite.report ~notes:(notes @ [ ("suite", suite) ]) ~probes ~label () in
  Benchgate.Report.write_file path report;
  Printf.printf "benchgate: wrote %d probes (suite %s, label %s) to %s\n"
    (List.length report.Benchgate.Report.probes) suite label path

let () =
  match flag_value "--report" with
  | Some path -> report_mode path
  | None ->
      print_endline "=== Part 1: micro-benchmarks (bechamel) ===";
      run_bechamel micro_tests;
      print_endline "\n=== Part 1b: per-figure miniature benchmarks (bechamel) ===";
      run_bechamel (List.map bench_figure Experiments.Run_all.figures)
