(* Smoke tests over the figure harness at a tiny scale: every figure renders
   without validation failures and carries the rows it promises. *)

let check_bool = Alcotest.(check bool)

let tiny = { Experiments.Harness.default_config with scale = 0.05; workers = 16 }

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let renders_with_rows id needles () =
  Experiments.Harness.clear_cache ();
  let f = Experiments.Run_all.find id in
  let out = Experiments.Run_all.render_one tiny f in
  check_bool "no validation failures" true (Experiments.Harness.validation_failures () = []);
  List.iter
    (fun needle -> check_bool (Printf.sprintf "mentions %s" needle) true (contains ~needle out))
    needles

let harness_caching () =
  Experiments.Harness.clear_cache ();
  let entry = Workloads.Registry.find "plus-reduce-array" in
  let a = Experiments.Harness.baseline tiny entry in
  let b = Experiments.Harness.baseline tiny entry in
  check_bool "cached result reused" true (a == b)

let harness_speedup_sane () =
  Experiments.Harness.clear_cache ();
  let entry = Workloads.Registry.find "spmv-powerlaw" in
  let o = Experiments.Harness.run tiny Sched_run.hbc entry in
  check_bool "valid" true o.Experiments.Harness.valid;
  check_bool "speedup in (1, 16]" true
    (o.Experiments.Harness.speedup > 1.0 && o.Experiments.Harness.speedup <= 16.5)

(* A seeded scheduler bug that changes fingerprints must surface twice: as
   the figure's WARNING line and as exit status 2. *)
let divergence_exits_2 () =
  Experiments.Harness.clear_cache ();
  Fun.protect
    ~finally:(fun () ->
      Hbc_core.Executor.set_seeded_bug None;
      Experiments.Harness.clear_cache ())
    (fun () ->
      Hbc_core.Executor.set_seeded_bug (Some Hbc_core.Executor.Duplicate_leftover);
      let out = Experiments.Run_all.render_one tiny (Experiments.Run_all.find "fig6") in
      check_bool "warns" true (contains ~needle:"WARNING: output mismatch" out);
      Alcotest.(check int) "diverged exit" 2 (Experiments.Run_all.exit_code ()));
  Alcotest.(check int) "clean exit" 0 (Experiments.Run_all.exit_code ())

(* A trial stopped by its cycle budget is quarantined as a timeout and
   keeps exit 0; a trial whose compute raises is quarantined as a crash
   and exits 4. Clearing the cache clears the status. *)
let crash_exits_4 () =
  Experiments.Harness.clear_cache ();
  Fun.protect ~finally:Experiments.Harness.clear_cache (fun () ->
      let entry = Workloads.Registry.find "plus-reduce-array" in
      let o = Experiments.Harness.run { tiny with trial_budget = Some 5000 } Sched_run.hbc entry in
      check_bool "timed out" true
        (match o.Experiments.Harness.error with
        | Some (Experiments.Trial_error.Timeout _) -> true
        | _ -> false);
      Alcotest.(check int) "timeout exit" 0 (Experiments.Run_all.exit_code ());
      let r =
        Experiments.Harness.trial { tiny with max_retries = 0 } ~bench:"exit-code" ~tag:"raises"
          ~signature:"raises" (fun () -> failwith "trial body raised")
      in
      check_bool "crashed" true
        (match r with Error (Experiments.Trial_error.Crash _) -> true | _ -> false);
      Alcotest.(check int) "crash exit" 4 (Experiments.Run_all.exit_code ()));
  Alcotest.(check int) "clean exit" 0 (Experiments.Run_all.exit_code ())

let figure_ids () =
  Alcotest.(check (list string))
    "all figures present"
    [ "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "fault-sweep"; "serve-bench" ]
    (List.map (fun f -> f.Experiments.Figure.id) Experiments.Run_all.figures)

let suite =
  [
    Alcotest.test_case "figure registry" `Quick figure_ids;
    Alcotest.test_case "harness: caching" `Quick harness_caching;
    Alcotest.test_case "harness: hbc outcome" `Quick harness_speedup_sane;
    Alcotest.test_case "divergence exits 2" `Quick divergence_exits_2;
    Alcotest.test_case "crash exits 4" `Quick crash_exits_4;
    Alcotest.test_case "fig5 renders" `Slow (renders_with_rows "fig5" [ "nesting level"; "mandelbulb" ]);
    Alcotest.test_case "fig10 renders" `Slow (renders_with_rows "fig10" [ "1024"; "input 1" ]);
    Alcotest.test_case "fig12 renders" `Slow (renders_with_rows "fig12" [ "powerlaw-reverse"; "avg AC chunk" ]);
    Alcotest.test_case "fig15 renders" `Slow (renders_with_rows "fig15" [ "all DOALL" ]);
    Alcotest.test_case "fig13 renders" `Slow (renders_with_rows "fig13" [ "target 4"; "srad" ]);
    Alcotest.test_case "fig14 renders" `Slow (renders_with_rows "fig14" [ "chunk 32"; "mandelbulb" ]);
  ]
