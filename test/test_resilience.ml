(* The resilience layer: journal round-trips, checkpoint/resume, content-hash
   invalidation, trial watchdogs, retry/quarantine, and explicit DNF/error
   accounting in the summary statistics. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tiny = { Experiments.Harness.default_config with scale = 0.05; workers = 16 }

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let temp_journal () =
  let path = Filename.temp_file "hbc-journal" ".jsonl" in
  Sys.remove path;
  path

let with_fresh_journal ~path ~resume f =
  Experiments.Harness.clear_cache ();
  let j = Experiments.Checkpoint.create ~path ~resume in
  Experiments.Harness.set_journal (Some j);
  Fun.protect
    ~finally:(fun () ->
      Experiments.Harness.set_journal None;
      Experiments.Checkpoint.close j)
    (fun () -> f j)

(* A representative captured trace: every payload-carrying event shape the
   journal codec must round-trip. *)
let sample_trace =
  [
    { Obs.Trace.seq = 0; time = 400; worker = 1; event = Obs.Trace.Chunk_update { key = 1; chunk = 8 } };
    { Obs.Trace.seq = 1; time = 800; worker = 2; event = Obs.Trace.Chunk_update { key = 2; chunk = 16 } };
    { Obs.Trace.seq = 2; time = 4_500; worker = 1; event = Obs.Trace.Mechanism_downgrade };
    { Obs.Trace.seq = 3; time = 9_000; worker = 3; event = Obs.Trace.Mechanism_downgrade };
    { Obs.Trace.seq = 4; time = 10_000; worker = 0; event = Obs.Trace.Fault_injected (Obs.Trace.Beat_delayed 250) };
    { Obs.Trace.seq = 5; time = 12_000; worker = 0; event = Obs.Trace.Promotion { level = 1 } };
    { Obs.Trace.seq = 6; time = 13_000; worker = 0; event = Obs.Trace.Interval { t0 = 11_000; kind = "task" } };
  ]

let sample_result () =
  let metrics = Sim.Metrics.create () in
  metrics.Sim.Metrics.heartbeats_generated <- 41;
  metrics.Sim.Metrics.heartbeats_detected <- 40;
  metrics.Sim.Metrics.promotions <- 7;
  metrics.Sim.Metrics.promotions_by_level.(2) <- 5;
  Sim.Metrics.add_overhead metrics Sim.Metrics.Poll 123;
  metrics.Sim.Metrics.downgrades <- 2;
  {
    Sim.Run_result.makespan = 123_456;
    work_cycles = 1_000_000;
    fingerprint = 0.1 +. 0.2;
    dnf = false;
    termination = Sim.Run_result.Budget_exceeded { budget = 200_000; at = 123_456 };
    metrics;
    trace = sample_trace;
    sanitizer = None;
  }

(* ---------------- journal codec round-trips ---------------- *)

let roundtrip_completed () =
  let entry =
    {
      Experiments.Checkpoint.key = "abc123";
      bench = "spmv-powerlaw";
      tag = "hbc";
      scale = 0.05;
      workers = 16;
      seed = 7;
      status = Experiments.Checkpoint.Completed (sample_result ());
    }
  in
  match Experiments.Checkpoint.entry_of_json (Experiments.Checkpoint.entry_to_json entry) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok e -> (
      check_string "key" entry.Experiments.Checkpoint.key e.Experiments.Checkpoint.key;
      check_string "bench" "spmv-powerlaw" e.Experiments.Checkpoint.bench;
      check_int "seed" 7 e.Experiments.Checkpoint.seed;
      match e.Experiments.Checkpoint.status with
      | Experiments.Checkpoint.Failed _ -> Alcotest.fail "expected Completed"
      | Experiments.Checkpoint.Completed r ->
          check_int "makespan" 123_456 r.Sim.Run_result.makespan;
          check_bool "fingerprint exact" true (r.Sim.Run_result.fingerprint = 0.1 +. 0.2);
          check_bool "termination" true
            (r.Sim.Run_result.termination
            = Sim.Run_result.Budget_exceeded { budget = 200_000; at = 123_456 });
          let m = r.Sim.Run_result.metrics in
          check_int "counter" 41 m.Sim.Metrics.heartbeats_generated;
          check_int "per-level promotions" 5 m.Sim.Metrics.promotions_by_level.(2);
          check_int "overhead kind" 123 (Sim.Metrics.overhead_of m Sim.Metrics.Poll);
          check_int "downgrade counter" 2 (Sim.Metrics.downgrade_count m);
          check_bool "trace round-trips exactly" true (r.Sim.Run_result.trace = sample_trace);
          check_bool "downgrade events queryable" true
            (Obs.Trace_query.downgrades r.Sim.Run_result.trace = [ (1, 4_500); (3, 9_000) ]);
          check_bool "chunk updates queryable" true
            (Obs.Trace_query.chunk_updates r.Sim.Run_result.trace
            = [ (400, 1, 8); (800, 2, 16) ]))

let roundtrip_failed () =
  let entry =
    {
      Experiments.Checkpoint.key = "k";
      bench = "b";
      tag = "t";
      scale = 1.0;
      workers = 64;
      seed = 1;
      status =
        Experiments.Checkpoint.Failed
          (Experiments.Trial_error.Timeout "cycle budget 100 exceeded");
    }
  in
  match Experiments.Checkpoint.entry_of_json (Experiments.Checkpoint.entry_to_json entry) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok e -> (
      match e.Experiments.Checkpoint.status with
      | Experiments.Checkpoint.Failed (Experiments.Trial_error.Timeout d) ->
          check_string "detail" "cycle budget 100 exceeded" d
      | _ -> Alcotest.fail "expected Failed Timeout")

(* The journal's "overhead" object lists the nonzero kinds by name. A
   kind this build does not know (written by a newer one) is dropped on
   decode, as unknown counters are, and the rest of the line survives. *)
let unknown_overhead_kind_ignored () =
  let entry =
    {
      Experiments.Checkpoint.key = "k";
      bench = "b";
      tag = "t";
      scale = 1.0;
      workers = 64;
      seed = 1;
      status = Experiments.Checkpoint.Completed (sample_result ());
    }
  in
  let line = Experiments.Checkpoint.entry_to_json entry in
  let known = "\"overhead\":{\"poll\":123}" in
  let n = String.length known in
  let rec at i = if String.sub line i n = known then i else at (i + 1) in
  let at = at 0 in
  let future =
    String.sub line 0 at ^ "\"overhead\":{\"poll\":123,\"warp-drive\":9}"
    ^ String.sub line (at + n) (String.length line - at - n)
  in
  match Experiments.Checkpoint.entry_of_json future with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok e -> (
      match e.Experiments.Checkpoint.status with
      | Experiments.Checkpoint.Failed _ -> Alcotest.fail "expected Completed"
      | Experiments.Checkpoint.Completed r ->
          let m = r.Sim.Run_result.metrics in
          check_int "known kind kept" 123 (Sim.Metrics.overhead_of m Sim.Metrics.Poll);
          check_int "total untouched" 123 m.Sim.Metrics.overhead_cycles;
          check_string "re-encodes to the known kinds" line
            (Experiments.Checkpoint.entry_to_json e))

let torn_lines_skipped () =
  let path = temp_journal () in
  let entry =
    {
      Experiments.Checkpoint.key = "k1";
      bench = "b";
      tag = "t";
      scale = 1.0;
      workers = 64;
      seed = 1;
      status = Experiments.Checkpoint.Completed (sample_result ());
    }
  in
  let oc = open_out path in
  output_string oc (Experiments.Checkpoint.entry_to_json entry ^ "\n");
  (* a torn trailing write, as left behind by kill -9 mid-record *)
  output_string oc "{\"v\":1,\"key\":\"k2\",\"ben";
  close_out oc;
  let j = Experiments.Checkpoint.create ~path ~resume:true in
  check_int "loaded" 1 (Experiments.Checkpoint.loaded j);
  check_int "skipped" 1 (Experiments.Checkpoint.skipped_lines j);
  check_bool "valid entry survives" true (Experiments.Checkpoint.find j "k1" <> None);
  Experiments.Checkpoint.close j;
  (* the compacting rewrite drops the torn line for good *)
  let j2 = Experiments.Checkpoint.create ~path ~resume:true in
  check_int "clean after rewrite" 0 (Experiments.Checkpoint.skipped_lines j2);
  check_int "still one entry" 1 (Experiments.Checkpoint.loaded j2);
  Experiments.Checkpoint.close j2;
  Sys.remove path

(* ---------------- checkpoint/resume through the harness ---------------- *)

let counting_trial config ~tag calls =
  Experiments.Harness.trial config ~bench:"synthetic" ~tag ~signature:"sig-v1" (fun () ->
      incr calls;
      {
        Sim.Run_result.makespan = 10;
        work_cycles = 100;
        fingerprint = 1.0;
        dnf = false;
        termination = Sim.Run_result.Finished;
        metrics = Sim.Metrics.create ();
        trace = [];
        sanitizer = None;
      })

let resume_skips_completed () =
  let path = temp_journal () in
  let calls = ref 0 in
  with_fresh_journal ~path ~resume:false (fun j ->
      (match counting_trial tiny ~tag:"resume" calls with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "trial failed");
      check_int "computed once" 1 !calls;
      check_int "recorded" 1 (Experiments.Checkpoint.appended j));
  (* a fresh process resuming from the journal must not recompute *)
  with_fresh_journal ~path ~resume:true (fun j ->
      check_int "loaded from disk" 1 (Experiments.Checkpoint.loaded j);
      (match counting_trial tiny ~tag:"resume" calls with
      | Ok r -> check_int "journaled makespan" 10 r.Sim.Run_result.makespan
      | Error _ -> Alcotest.fail "journaled trial failed");
      check_int "not recomputed" 1 !calls;
      check_int "served from journal" 1 (Experiments.Checkpoint.hits j));
  Sys.remove path

let config_change_invalidates () =
  let path = temp_journal () in
  let calls = ref 0 in
  with_fresh_journal ~path ~resume:false (fun _ ->
      ignore (counting_trial tiny ~tag:"inval" calls);
      check_int "computed once" 1 !calls);
  (* same journal, different seed: the content-hash key changes, so the
     stale entry is never looked up and the trial re-runs *)
  with_fresh_journal ~path ~resume:true (fun j ->
      ignore (counting_trial { tiny with seed = 99 } ~tag:"inval" calls);
      check_int "recomputed under new seed" 2 !calls;
      check_int "no journal hit" 0 (Experiments.Checkpoint.hits j));
  (* and a changed executor signature invalidates the same way *)
  with_fresh_journal ~path ~resume:true (fun _ ->
      ignore
        (Experiments.Harness.trial tiny ~bench:"synthetic" ~tag:"inval" ~signature:"sig-v2"
           (fun () ->
             incr calls;
             {
               Sim.Run_result.makespan = 10;
               work_cycles = 100;
               fingerprint = 1.0;
               dnf = false;
               termination = Sim.Run_result.Finished;
               metrics = Sim.Metrics.create ();
               trace = [];
               sanitizer = None;
             }));
      check_int "recomputed under new signature" 3 !calls);
  Sys.remove path

(* ---------------- watchdogs ---------------- *)

let budget_watchdog_times_out () =
  Experiments.Harness.clear_cache ();
  let config = { tiny with trial_budget = Some 500 } in
  let entry = Workloads.Registry.find "plus-reduce-array" in
  let o = Experiments.Harness.run config ~tag:"watchdog" Sched_run.hbc entry in
  (match o.Experiments.Harness.error with
  | Some (Experiments.Trial_error.Timeout _) -> ()
  | Some e -> Alcotest.failf "expected Timeout, got %s" (Experiments.Trial_error.to_string e)
  | None -> Alcotest.fail "expected the cycle-budget watchdog to fire");
  check_string "rendered cell" "\xe2\x80\x94(timeout)"
    (Experiments.Harness.speedup_cell o);
  check_bool "quarantined" true
    (List.exists
       (fun (label, _) -> contains ~needle:"plus-reduce-array" label)
       (Experiments.Harness.quarantined ()))

let engine_budget_is_structured () =
  (* the engine raises a structured Budget_exceeded (not a livelock) *)
  let request =
    Experiments.Harness.guarded
      { tiny with trial_budget = Some 200 }
      Hbc_core.Run_request.default
  in
  let entry = Workloads.Registry.find "spmv-random" in
  let (Ir.Program.Any p) = entry.Workloads.Registry.make 0.05 in
  match
    Sched_run.run ~request
      (Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 4; seed = 1 })
      p
  with
  | r ->
      check_bool "terminated by budget" true
        (match r.Sim.Run_result.termination with
        | Sim.Run_result.Budget_exceeded { budget = 200; _ } -> true
        | _ -> false)
  | exception e -> Alcotest.failf "expected a structured result, got %s" (Printexc.to_string e)

(* ---------------- retry and quarantine ---------------- *)

let quarantine_after_retries () =
  Experiments.Harness.clear_cache ();
  let config = { tiny with max_retries = 2; retry_backoff = 0.0 } in
  let calls = ref 0 in
  let flaky () =
    incr calls;
    failwith "synthetic crash"
  in
  (match
     Experiments.Harness.trial config ~bench:"flaky" ~tag:"t" ~signature:"s" flaky
   with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error (Experiments.Trial_error.Crash _) -> ()
  | Error e -> Alcotest.failf "expected Crash, got %s" (Experiments.Trial_error.to_string e));
  check_int "initial attempt + 2 retries" 3 !calls;
  (* quarantined: asking again must not re-run it *)
  (match Experiments.Harness.trial config ~bench:"flaky" ~tag:"t" ~signature:"s" flaky with
  | Ok _ -> Alcotest.fail "expected quarantined failure"
  | Error _ -> ());
  check_int "no further attempts" 3 !calls;
  check_bool "listed" true
    (List.exists (fun (label, _) -> label = "flaky/t") (Experiments.Harness.quarantined ()))

let transient_crash_retries_then_succeeds () =
  Experiments.Harness.clear_cache ();
  let config = { tiny with max_retries = 2; retry_backoff = 0.0 } in
  let calls = ref 0 in
  let once_flaky () =
    incr calls;
    if !calls = 1 then failwith "spurious";
    {
      Sim.Run_result.makespan = 5;
      work_cycles = 50;
      fingerprint = 2.0;
      dnf = false;
      termination = Sim.Run_result.Finished;
      metrics = Sim.Metrics.create ();
      trace = [];
      sanitizer = None;
    }
  in
  (match
     Experiments.Harness.trial config ~bench:"flaky2" ~tag:"t" ~signature:"s" once_flaky
   with
  | Ok r -> check_int "result from retry" 5 r.Sim.Run_result.makespan
  | Error e -> Alcotest.failf "retry should recover: %s" (Experiments.Trial_error.to_string e));
  check_int "exactly one retry" 2 !calls;
  check_bool "not quarantined" true (Experiments.Harness.quarantined () = [])

let deterministic_failures_fail_fast () =
  Experiments.Harness.clear_cache ();
  let config = { tiny with max_retries = 5; retry_backoff = 0.0 } in
  let calls = ref 0 in
  let timing_out () =
    incr calls;
    raise (Sim.Engine.Budget_exceeded { budget = 1; time = 2 })
  in
  (match Experiments.Harness.trial config ~bench:"slow" ~tag:"t" ~signature:"s" timing_out with
  | Error (Experiments.Trial_error.Timeout _) -> ()
  | _ -> Alcotest.fail "expected Timeout");
  check_int "no retries for deterministic failures" 1 !calls

(* ---------------- explicit DNF/error accounting ---------------- *)

let geomean_exclusion () =
  let g, excluded = Report.Stats.geomean_excluding [ Some 2.0; Some 8.0; None; None ] in
  check_bool "geomean of present" true (Float.abs (g -. 4.0) < 1e-9);
  check_int "exclusions counted" 2 excluded;
  let ok speedup =
    {
      Experiments.Harness.result =
        {
          Sim.Run_result.makespan = 10;
          work_cycles = 100;
          fingerprint = 0.0;
          dnf = false;
          termination = Sim.Run_result.Finished;
          metrics = Sim.Metrics.create ();
          trace = [];
          sanitizer = None;
        };
      speedup;
      valid = true;
      error = None;
    }
  in
  let failed = { (ok 0.0) with error = Some (Experiments.Trial_error.Timeout "t") } in
  match Experiments.Harness.geomean_row ~label:"geomean" [ [ ok 2.0; ok 8.0; failed ] ] with
  | [ label; cell ] ->
      check_string "label" "geomean" label;
      check_bool "cell renders exclusion" true (contains ~needle:"(1 excl.)" cell);
      check_bool "cell renders geomean" true (contains ~needle:"4.0" cell)
  | row -> Alcotest.failf "unexpected row arity %d" (List.length row)

let error_cells_render () =
  let base =
    {
      Sim.Run_result.makespan = 10;
      work_cycles = 100;
      fingerprint = 0.0;
      dnf = true;
      termination = Sim.Run_result.Dnf;
      metrics = Sim.Metrics.create ();
      trace = [];
      sanitizer = None;
    }
  in
  let dnf_outcome =
    { Experiments.Harness.result = base; speedup = 0.5; valid = true; error = None }
  in
  check_string "DNF cell" "DNF" (Experiments.Harness.speedup_cell dnf_outcome);
  check_bool "DNF excluded from geomeans" true
    (Experiments.Harness.speedup_opt dnf_outcome = None);
  check_string "deadlock cell" "\xe2\x80\x94(deadlock)"
    (Experiments.Trial_error.cell (Experiments.Trial_error.Deadlock "d"))

(* Serve-mode requests must never alias plain trials in the journal: the
   deadline and promotion-budget knobs have to reach the request
   signature. *)
let signature_covers_serve_fields () =
  let sig_of req = Hbc_core.Run_request.signature req in
  let plain = sig_of (Hbc_core.Run_request.make ()) in
  let variants =
    [
      ("deadline", Hbc_core.Run_request.make ~deadline:50_000 ());
      ("promotion budget", Hbc_core.Run_request.make ~promotion_budget:8 ());
    ]
  in
  List.iter
    (fun (name, req) ->
      check_bool (name ^ " changes the signature") true (sig_of req <> plain))
    variants;
  let sigs = plain :: List.map (fun (_, r) -> sig_of r) variants in
  check_bool "all three signatures distinct" true
    (List.length (List.sort_uniq compare sigs) = List.length sigs);
  (* equal requests still agree *)
  check_bool "signatures are stable" true
    (sig_of (Hbc_core.Run_request.make ~deadline:50_000 ())
    = sig_of (Hbc_core.Run_request.make ~deadline:50_000 ()))

(* Golden signatures for non-serving requests: experiment-journal keys of
   campaign trials must not move when request fields are added or removed. *)
let signature_pins () =
  let pin name want req = check_string name want (Hbc_core.Run_request.signature req) in
  pin "default" "995e697e61e7e79efee5d7d868fdf094" Hbc_core.Run_request.default;
  pin "sanitize" "3f61b6e6a30270bd06c60a35acda6811" (Hbc_core.Run_request.make ~sanitize:true ());
  pin "fuzz case" "2175e24d83a5c4b71913a164be922e45"
    (Hbc_core.Run_request.make ~fuzz_case:"0123456789abcdef" ());
  pin "max cycles" "0d35ef9d855f09f6df26e9bd4513c84c"
    (Hbc_core.Run_request.make ~max_cycles:1_000_000 ());
  pin "deadline" "133d2ef856c8f8fcb2f8bb12e3510acb" (Hbc_core.Run_request.make ~deadline:50_000 ());
  pin "promotion budget" "0eb54f95c2c3de254c88ed9989770868"
    (Hbc_core.Run_request.make ~promotion_budget:8 ());
  pin "domains backend" "855b7a5c66057c9e36faee4c94db4bc0"
    (Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ())

let suite =
  [
    Alcotest.test_case "journal: completed round-trip" `Quick roundtrip_completed;
    Alcotest.test_case "journal: failed round-trip" `Quick roundtrip_failed;
    Alcotest.test_case "journal: unknown overhead kind ignored" `Quick unknown_overhead_kind_ignored;
    Alcotest.test_case "journal: torn lines skipped" `Quick torn_lines_skipped;
    Alcotest.test_case "resume skips completed trials" `Quick resume_skips_completed;
    Alcotest.test_case "config hash invalidates entries" `Quick config_change_invalidates;
    Alcotest.test_case "watchdog: cycle budget times out" `Quick budget_watchdog_times_out;
    Alcotest.test_case "watchdog: engine result structured" `Quick engine_budget_is_structured;
    Alcotest.test_case "quarantine after bounded retries" `Quick quarantine_after_retries;
    Alcotest.test_case "transient crash retried to success" `Quick transient_crash_retries_then_succeeds;
    Alcotest.test_case "deterministic failures fail fast" `Quick deterministic_failures_fail_fast;
    Alcotest.test_case "geomean excludes failures explicitly" `Quick geomean_exclusion;
    Alcotest.test_case "error cells render explicitly" `Quick error_cells_render;
    Alcotest.test_case "signature covers serve fields" `Quick signature_covers_serve_fields;
    Alcotest.test_case "signature pins for plain requests" `Quick signature_pins;
  ]
