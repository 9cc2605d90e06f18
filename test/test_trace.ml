(* The trace subsystem's contract: sinks never perturb results, the counting
   sink and captured events agree (single emission site per occurrence), the
   export is deterministic byte for byte, ring sinks bound memory by
   dropping oldest, and the query layer is capture-order independent. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let workers = 8

let program () = Workloads.Spmv.powerlaw ~scale:0.05

let rt = { Hbc_core.Rt_config.default with workers }

let run ?request () = Sched_run.run ?request (Sched_run.Hbc rt) (program ())

let run_traced () =
  run ~request:(Hbc_core.Run_request.make ~trace:(Obs.Trace.Sink.stream ()) ()) ()

(* ------------------- tracing never changes results ------------------- *)

(* The Null sink (tracing off) and a full Stream capture must be the same
   run: same fingerprint, same makespan, same counters. Emission allocates
   nothing through Null and never advances virtual time through Stream. *)
let tracing_off_is_identical () =
  let off = run () in
  let on_ = run_traced () in
  check_int "makespan" off.Sim.Run_result.makespan on_.Sim.Run_result.makespan;
  Alcotest.(check (float 0.0))
    "fingerprint" off.Sim.Run_result.fingerprint on_.Sim.Run_result.fingerprint;
  Alcotest.(check (list (pair string int)))
    "all counters"
    (Sim.Metrics.counters off.Sim.Run_result.metrics)
    (Sim.Metrics.counters on_.Sim.Run_result.metrics);
  check_int "null sink captures nothing" 0 (List.length off.Sim.Run_result.trace);
  check_bool "stream sink captured" true (List.length on_.Sim.Run_result.trace > 0)

(* ------------------- export determinism ------------------- *)

let export_is_byte_identical () =
  let a = run_traced () and b = run_traced () in
  let export r = Obs.Perfetto.to_string ~process_name:"test" r.Sim.Run_result.trace in
  check_string "same JSON bytes" (export a) (export b);
  check_bool "non-trivial" true (String.length (export a) > 100)

let export_parses_as_chrome_trace () =
  let r = run_traced () in
  let j = Obs.Json.parse (Obs.Perfetto.to_string r.Sim.Run_result.trace) in
  match j with
  | Obs.Json.Obj fields -> (
      match Obs.Json.mem "traceEvents" fields with
      | Some (Obs.Json.Arr events) ->
          check_bool "has events" true (List.length events > 0);
          (* every event has the mandatory Chrome trace_event keys *)
          List.iter
            (function
              | Obs.Json.Obj ef ->
                  check_bool "name" true (Obs.Json.get_str "name" ef <> None);
                  check_bool "ph" true (Obs.Json.get_str "ph" ef <> None);
                  check_bool "pid" true (Obs.Json.get_int "pid" ef <> None)
              | _ -> Alcotest.fail "event is not an object")
            events
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "top level is not an object"

let journal_codec_roundtrip () =
  let r = run_traced () in
  let recs = r.Sim.Run_result.trace in
  let decoded = Obs.Trace.records_of_json (Obs.Trace.records_to_json recs) in
  check_bool "round-trips exactly" true (decoded = recs)

(* ------------------- counting sink parity ------------------- *)

(* Counters and captured events come from the same emissions, so they can
   never disagree. *)
let counters_match_trace () =
  let r = run_traced () in
  let m = r.Sim.Run_result.metrics and t = r.Sim.Run_result.trace in
  let count p = Obs.Trace_query.count p t in
  check_int "promotions"
    m.Sim.Metrics.promotions
    (count (function Obs.Trace.Promotion _ -> true | _ -> false));
  check_int "steal attempts"
    m.Sim.Metrics.steal_attempts
    (count (function Obs.Trace.Steal_attempt -> true | _ -> false));
  check_int "steals"
    m.Sim.Metrics.steals
    (count (function Obs.Trace.Steal_success -> true | _ -> false));
  check_int "tasks spawned"
    m.Sim.Metrics.tasks_spawned
    (count (function Obs.Trace.Task_spawned -> true | _ -> false));
  check_int "beats generated"
    m.Sim.Metrics.heartbeats_generated
    (count (function Obs.Trace.Heartbeat_generated -> true | _ -> false));
  check_int "beats detected"
    m.Sim.Metrics.heartbeats_detected
    (count (function Obs.Trace.Heartbeat_detected -> true | _ -> false));
  check_int "polls" m.Sim.Metrics.polls (count (function Obs.Trace.Poll -> true | _ -> false));
  check_int "chunk updates"
    m.Sim.Metrics.chunk_updates
    (count (function Obs.Trace.Chunk_update _ -> true | _ -> false));
  (* per-level histogram agrees with the bucketed query *)
  Alcotest.(check (array int))
    "promotions by level" m.Sim.Metrics.promotions_by_level
    (Obs.Trace_query.promotions_by_level t)

(* ------------------- the two counting routes ------------------- *)

(* An untraced run counts each event straight into its metrics; a traced
   run counts it through the counting sink teed with the observer. The
   two routes must agree on every counter, the overhead attribution and
   the makespan: every Fig. 4 program, each heartbeat mechanism, with and
   without injected faults. *)
let counting_routes_agree () =
  let plan =
    {
      Sim.Fault_plan.none with
      Sim.Fault_plan.seed = 5;
      beat_drop_prob = 0.3;
      beat_jitter = 2_000;
      steal_fail_prob = 0.2;
      steal_fail_burst = 2;
      stall_prob = 0.05;
      stall_cycles = 3_000;
    }
  in
  let mechanisms =
    [
      ("poll", Hbc_core.Rt_config.hbc);
      ("km", Hbc_core.Rt_config.hbc_kernel_module ~chunk:64);
      ("ping", Hbc_core.Rt_config.hbc_ping_thread ~chunk:64);
    ]
  in
  List.iter
    (fun entry ->
      let (Ir.Program.Any p) = entry.Workloads.Registry.make 0.02 in
      List.iter
        (fun (mech, rt) ->
          List.iter
            (fun (faults, fault_plan) ->
              let go trace =
                let request = Hbc_core.Run_request.make ?fault_plan ?trace () in
                Sched_run.run ~request (Sched_run.Hbc { rt with workers }) p
              in
              let off = go None and on_ = go (Some (Obs.Trace.Sink.stream ())) in
              let tag = Printf.sprintf "%s/%s/%s" entry.Workloads.Registry.name mech faults in
              check_bool (tag ^ " traced run captured") true (on_.Sim.Run_result.trace <> []);
              if fault_plan <> None then
                check_bool (tag ^ " faults injected") true
                  (Sim.Metrics.faults_injected off.Sim.Run_result.metrics > 0);
              check_int (tag ^ " makespan") on_.Sim.Run_result.makespan off.Sim.Run_result.makespan;
              Alcotest.(check (list (pair string int)))
                (tag ^ " counters")
                (Sim.Metrics.counters on_.Sim.Run_result.metrics)
                (Sim.Metrics.counters off.Sim.Run_result.metrics);
              Alcotest.(check (list (pair string int)))
                (tag ^ " attribution")
                (Sim.Metrics.attribution on_.Sim.Run_result.metrics)
                (Sim.Metrics.attribution off.Sim.Run_result.metrics))
            [ ("fault-free", None); ("faults", Some plan) ])
        mechanisms)
    (Workloads.Registry.irregular_set ())

(* ------------------- sink semantics ------------------- *)

let some_records n =
  List.init n (fun i ->
      { Obs.Trace.seq = i; time = 10 * i; worker = i mod 2; event = Obs.Trace.Poll })

let ring_drops_oldest () =
  let ring = Obs.Trace.Sink.ring ~workers:2 ~capacity:3 () in
  List.iter
    (fun r -> Obs.Trace.Sink.emit ring ~time:r.Obs.Trace.time ~worker:r.Obs.Trace.worker Obs.Trace.Poll)
    (some_records 10);
  (* 10 events over 2 workers, 3 slots each: 6 kept, 4 dropped *)
  check_int "dropped count" 4 (Obs.Trace.Sink.dropped ring);
  let kept = Obs.Trace.Sink.captured ring in
  check_int "kept" 6 (List.length kept);
  (* the oldest went first: every kept time is newer than every dropped one *)
  List.iter (fun r -> check_bool "newest kept" true (r.Obs.Trace.time >= 40)) kept;
  (* per-worker merge preserves global emission order *)
  check_bool "seq sorted" true
    (List.for_all2
       (fun a b -> a.Obs.Trace.seq < b.Obs.Trace.seq)
       (List.filteri (fun i _ -> i < 5) kept)
       (List.tl kept))

let ring_keep_filter () =
  let ring =
    Obs.Trace.Sink.ring
      ~keep:(function Obs.Trace.Steal_success -> true | _ -> false)
      ~workers:1 ~capacity:8 ()
  in
  Obs.Trace.Sink.emit ring ~time:1 ~worker:0 Obs.Trace.Poll;
  Obs.Trace.Sink.emit ring ~time:2 ~worker:0 Obs.Trace.Steal_success;
  Obs.Trace.Sink.emit ring ~time:3 ~worker:0 Obs.Trace.Poll;
  check_int "only kept events" 1 (List.length (Obs.Trace.Sink.captured ring));
  check_int "filtered are not drops" 0 (Obs.Trace.Sink.dropped ring)

let tee_and_null () =
  check_bool "null disabled" false (Obs.Trace.Sink.enabled Obs.Trace.Sink.null);
  check_bool "null captures nothing" false (Obs.Trace.Sink.captures Obs.Trace.Sink.null);
  let s = Obs.Trace.Sink.stream () in
  check_bool "tee collapses null" true (Obs.Trace.Sink.tee Obs.Trace.Sink.null s == s);
  let hits = ref 0 in
  let f = Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ _ -> incr hits) in
  let t = Obs.Trace.Sink.tee f s in
  Obs.Trace.Sink.emit t ~time:5 ~worker:1 Obs.Trace.Task_spawned;
  check_int "fn side saw it" 1 !hits;
  check_int "stream side saw it" 1 (List.length (Obs.Trace.Sink.captured s));
  check_bool "fn captures nothing" false (Obs.Trace.Sink.captures f);
  check_bool "tee with stream captures" true (Obs.Trace.Sink.captures t)

(* ------------------- query layer ------------------- *)

let windowed_query () =
  let recs = some_records 10 in
  (* events at t = 0,10,...,90; windows of 25 cycles: 0..24 has 3, 25..49
     has 2 (t=30,40), 50..74 has 3 (t=50,60,70), 75..99 has 2 *)
  Alcotest.(check (list (pair int int)))
    "window histogram"
    [ (0, 3); (25, 2); (50, 3); (75, 2) ]
    (Obs.Trace_query.windowed ~width:25 (fun _ -> true) recs)

let query_order_independent () =
  let r = run_traced () in
  let t = r.Sim.Run_result.trace in
  let shuffled = List.rev t in
  check_bool "intervals" true
    (Obs.Trace_query.intervals t = Obs.Trace_query.intervals shuffled);
  check_bool "chunk updates" true
    (Obs.Trace_query.chunk_updates t = Obs.Trace_query.chunk_updates shuffled);
  check_int "count" (Obs.Trace_query.count (fun _ -> true) t)
    (Obs.Trace_query.count (fun _ -> true) shuffled)

let suite =
  [
    Alcotest.test_case "tracing off is identical" `Quick tracing_off_is_identical;
    Alcotest.test_case "export byte-identical across runs" `Quick export_is_byte_identical;
    Alcotest.test_case "export parses as chrome trace" `Quick export_parses_as_chrome_trace;
    Alcotest.test_case "journal codec round-trips" `Quick journal_codec_roundtrip;
    Alcotest.test_case "counters match trace" `Quick counters_match_trace;
    Alcotest.test_case "untraced and traced counts agree" `Quick counting_routes_agree;
    Alcotest.test_case "ring drops oldest" `Quick ring_drops_oldest;
    Alcotest.test_case "ring keep filter" `Quick ring_keep_filter;
    Alcotest.test_case "tee and null" `Quick tee_and_null;
    Alcotest.test_case "windowed query" `Quick windowed_query;
    Alcotest.test_case "query order independent" `Quick query_order_independent;
  ]
