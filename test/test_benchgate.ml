(* Perf-gate subsystem: report codec, regression diff, suite determinism. *)

open Benchgate

let metric name value = { Report.metric = name; value }

let probe name metrics = { Report.probe = name; metrics }

let sample_report ?(label = "t") probes = Report.make ~notes:[ ("k", "v") ] ~label probes

let base () =
  sample_report
    [
      probe "micro/a" [ metric "cycles" 100. ];
      probe "macro/b" [ metric "promotions" 40.; metric "steals" 8. ];
    ]

(* ------------------------------- codec ---------------------------- *)

let test_roundtrip () =
  let r = base () in
  let r' = Report.of_string (Report.to_string r) in
  Alcotest.(check int) "schema" Report.schema_version r'.Report.schema;
  Alcotest.(check string) "label" r.Report.label r'.Report.label;
  Alcotest.(check (list (pair string string))) "notes" r.Report.notes r'.Report.notes;
  Alcotest.(check int) "probes" (List.length r.Report.probes) (List.length r'.Report.probes);
  let p = Option.get (Report.find_probe r' "micro/a") in
  let m = Option.get (Report.find_metric p "cycles") in
  Alcotest.(check (float 0.0)) "value" 100. m.Report.value

let test_roundtrip_bytes () =
  (* Deterministic serialization: decode/encode is the identity on bytes. *)
  let s = Report.to_string (base ()) in
  Alcotest.(check string) "byte-stable" s (Report.to_string (Report.of_string s))

let test_malformed () =
  (* Schema 1 tagged every metric with a kind; such files are refused. *)
  Alcotest.check_raises "schema 1"
    (Report.Malformed "unsupported report schema 1 (this build reads 2)") (fun () ->
      ignore
        (Report.of_string
           {|{"schema": 1, "label": "x", "notes": {}, "probes": [{"probe": "p", "metrics": [{"metric": "m", "value": 1, "kind": "det"}]}]}|}));
  Alcotest.check_raises "non-numeric value"
    (Report.Malformed "metric \"m\" without a numeric value") (fun () ->
      ignore
        (Report.of_string
           {|{"schema": 2, "label": "x", "notes": {}, "probes": [{"probe": "p", "metrics": [{"metric": "m", "value": "1"}]}]}|}));
  match Report.of_string "{nope" with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "syntax error accepted"

let test_file_roundtrip () =
  let path = Filename.temp_file "benchgate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = base () in
      Report.write_file path r;
      let r' = Report.read_file path in
      Alcotest.(check string) "label" r.Report.label r'.Report.label;
      Alcotest.(check int) "probes" 2 (List.length r'.Report.probes))

(* -------------------------------- diff ---------------------------- *)

let diff ?threshold old new_ = Diff.compare ?threshold ~old ~new_ ()

let statuses lines = List.map (fun l -> l.Diff.status) lines

let test_diff_identical () =
  let lines, verdict = diff (base ()) (base ()) in
  Alcotest.(check bool) "pass" true (verdict = Diff.Pass);
  Alcotest.(check bool) "all unchanged" true
    (List.for_all (fun s -> s = Diff.Unchanged) (statuses lines));
  Alcotest.(check int) "exit 0" 0 (Diff.exit_code verdict)

let test_diff_regression () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 103. ] ] in
  let lines, verdict = diff old new_ in
  Alcotest.(check bool) "fail" true (verdict = Diff.Fail);
  Alcotest.(check int) "exit 1" 1 (Diff.exit_code verdict);
  match lines with
  | [ l ] ->
      Alcotest.(check bool) "regressed" true (l.Diff.status = Diff.Regressed);
      Alcotest.(check (float 0.01)) "delta" 3.0 (Option.get l.Diff.delta_pct)
  | _ -> Alcotest.fail "expected one line"

let test_diff_within_threshold () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 101. ] ] in
  let _, verdict = diff old new_ in
  Alcotest.(check bool) "1% passes a 2% gate" true (verdict = Diff.Pass);
  let _, tight = diff ~threshold:0.005 old new_ in
  Alcotest.(check bool) "1% fails a 0.5% gate" true (tight = Diff.Fail)

let test_diff_improvement_passes () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 80. ] ] in
  let lines, verdict = diff old new_ in
  Alcotest.(check bool) "pass" true (verdict = Diff.Pass);
  Alcotest.(check bool) "improved" true (statuses lines = [ Diff.Improved ])

let test_diff_zero_baseline () =
  (* A metric that was 0 and became nonzero has no finite relative delta:
     treated as a regression (a new cost appeared). *)
  let old = sample_report [ probe "p" [ metric "steals" 0. ] ] in
  let new_ = sample_report [ probe "p" [ metric "steals" 5. ] ] in
  let _, verdict = diff old new_ in
  Alcotest.(check bool) "0 -> 5 fails" true (verdict = Diff.Fail)

let test_diff_skew () =
  (* Probe/metric set skew between baseline and suite warns, never fails. *)
  let old =
    sample_report [ probe "gone" [ metric "cycles" 1. ]; probe "p" [ metric "old_m" 1. ] ]
  in
  let new_ =
    sample_report [ probe "p" [ metric "new_m" 2. ]; probe "fresh" [ metric "cycles" 3. ] ]
  in
  let lines, verdict = diff old new_ in
  Alcotest.(check bool) "warn" true (verdict = Diff.Warn);
  let count st = List.length (List.filter (fun s -> s = st) (statuses lines)) in
  Alcotest.(check int) "removed probe + removed metric" 2 (count Diff.Removed);
  Alcotest.(check int) "added probe + added metric" 2 (count Diff.Added);
  Alcotest.(check int) "exit 0" 0 (Diff.exit_code verdict)

let test_render_mentions_regression () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 200. ] ] in
  let lines, verdict = diff old new_ in
  let s = Diff.render ~old ~new_ lines verdict in
  let has needle =
    let nl = String.length needle and sl = String.length s in
    let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "names probe" true (has "p");
  Alcotest.(check bool) "says FAIL" true (has "FAIL")

(* ----------------------------- suite ------------------------------ *)

(* The acceptance property of the whole subsystem: running the suite twice
   in one process yields identical metrics (virtual cycles, event counts,
   allocation words). *)
let test_suite_deterministic () =
  let strip probes =
    List.map
      (fun (p : Report.probe) ->
        ( p.Report.probe,
          List.map (fun (m : Report.metric) -> (m.Report.metric, m.Report.value)) p.Report.metrics ))
      probes
  in
  let a = strip (Suite.all ()) in
  let b = strip (Suite.all ()) in
  Alcotest.(check (list (pair string (list (pair string (float 0.0)))))) "identical" a b;
  let r1, _ = Diff.compare ~old:(Report.make ~label:"a" (Suite.all ()))
      ~new_:(Report.make ~label:"b" (Suite.all ())) () in
  Alcotest.(check bool) "no drift" true (List.for_all (fun l -> l.Diff.status = Diff.Unchanged) r1)

let test_suite_shape () =
  let r = Suite.report ~label:"shape" () in
  Alcotest.(check bool) "has micro probes" true
    (Option.is_some (Report.find_probe r "micro/engine-dispatch"));
  Alcotest.(check bool) "has macro probes" true
    (Option.is_some (Report.find_probe r "macro/fig4-5/spmv-powerlaw-hbc"));
  let p = Option.get (Report.find_probe r "macro/fig4-5/spmv-powerlaw-hbc") in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " present") true (Option.is_some (Report.find_metric p m)))
    [ "makespan_cycles"; "promotions"; "steals"; "polls" ];
  Alcotest.(check bool) "fiber probe records no allocation" true
    (Option.is_none (Report.find_metric p "alloc_minor_words"));
  (* The whole metric vocabulary: every name a probe reports is a
     deterministic count, so no wall-clock or major-heap row slips back. *)
  let names =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (p : Report.probe) -> List.map (fun m -> m.Report.metric) p.Report.metrics)
         r.Report.probes)
  in
  Alcotest.(check (list string)) "metric names"
    [
      "alloc_minor_words"; "beats"; "breaker_opens"; "charges"; "checkpoint_bytes";
      "checkpointed"; "completed"; "counted_promotions"; "deadline_exceeded"; "draws";
      "encodes"; "events"; "events_dispatched"; "events_processed"; "failed"; "goodput";
      "heartbeats_detected"; "hot_path_alloc_words"; "identical"; "kinds_attributed";
      "live_slices"; "lookups"; "makespan_cycles"; "ops"; "overhead_cycles"; "polls";
      "promotions"; "remaining_iters"; "resumed"; "resumed_makespan"; "rounds"; "shed";
      "sojourn_p50_cycles"; "sojourn_p99_cycles"; "steal_attempts"; "steals"; "submitted";
      "tasks_spawned"; "timer_ticks"; "vetoes"; "work_cycles"
    ]
    names;
  Alcotest.(check bool) "provenance recorded" true (List.mem_assoc "suite_seed" r.Report.notes)

let suite =
  [
    Alcotest.test_case "codec: report round-trip" `Quick test_roundtrip;
    Alcotest.test_case "codec: byte-stable serialization" `Quick test_roundtrip_bytes;
    Alcotest.test_case "codec: malformed inputs rejected" `Quick test_malformed;
    Alcotest.test_case "codec: file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "diff: identical reports pass" `Quick test_diff_identical;
    Alcotest.test_case "diff: >2% deterministic growth fails" `Quick test_diff_regression;
    Alcotest.test_case "diff: threshold boundary" `Quick test_diff_within_threshold;
    Alcotest.test_case "diff: improvement passes" `Quick test_diff_improvement_passes;
    Alcotest.test_case "diff: zero-baseline growth fails" `Quick test_diff_zero_baseline;
    Alcotest.test_case "diff: metric-set skew warns only" `Quick test_diff_skew;
    Alcotest.test_case "diff: render names regressions" `Quick test_render_mentions_regression;
    Alcotest.test_case "suite: deterministic metrics stable" `Slow test_suite_deterministic;
    Alcotest.test_case "suite: probes and metrics present" `Slow test_suite_shape;
  ]
