(* Scheduler-invariant sanitizer, adversarial fuzzer, and the trace-sink /
   deque plumbing they lean on. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Tee sink composition.                                               *)
(* ------------------------------------------------------------------ *)

let emit sink ~time ~worker ev = Obs.Trace.Sink.emit sink ~time ~worker ev

(* Both branches of a tee count their own drops; the tee reports the sum. *)
let tee_dropped_sum () =
  let a = Obs.Trace.Sink.ring ~workers:1 ~capacity:2 () in
  let b = Obs.Trace.Sink.ring ~workers:1 ~capacity:4 () in
  let t = Obs.Trace.Sink.tee a b in
  for i = 1 to 10 do
    emit t ~time:i ~worker:0 Obs.Trace.Poll
  done;
  check Alcotest.int "left drops" 8 (Obs.Trace.Sink.dropped a);
  check Alcotest.int "right drops" 6 (Obs.Trace.Sink.dropped b);
  check Alcotest.int "tee sums both" 14 (Obs.Trace.Sink.dropped t)

(* A tee whose branches keep disjoint event sets must still return its
   captured records in record-time order, not branch-concatenation order. *)
let tee_captured_order () =
  let polls = Obs.Trace.Sink.stream ~keep:(function Obs.Trace.Poll -> true | _ -> false) () in
  let steals =
    Obs.Trace.Sink.stream ~keep:(function Obs.Trace.Steal_attempt -> true | _ -> false) ()
  in
  let t = Obs.Trace.Sink.tee polls steals in
  emit t ~time:1 ~worker:0 Obs.Trace.Poll;
  emit t ~time:2 ~worker:0 Obs.Trace.Steal_attempt;
  emit t ~time:3 ~worker:0 Obs.Trace.Poll;
  emit t ~time:4 ~worker:0 Obs.Trace.Steal_attempt;
  let times = List.map (fun r -> r.Obs.Trace.time) (Obs.Trace.Sink.captured t) in
  check Alcotest.(list int) "chronological merge" [ 1; 2; 3; 4 ] times

(* ------------------------------------------------------------------ *)
(* Run_request signature.                                              *)
(* ------------------------------------------------------------------ *)

let signature_covers_sanitizer_bits () =
  let plain = Hbc_core.Run_request.signature (Hbc_core.Run_request.make ()) in
  let sanitized = Hbc_core.Run_request.signature (Hbc_core.Run_request.make ~sanitize:true ()) in
  let fuzzed =
    Hbc_core.Run_request.signature (Hbc_core.Run_request.make ~fuzz_case:"deadbeef" ())
  in
  Alcotest.(check bool) "sanitize changes signature" true (plain <> sanitized);
  Alcotest.(check bool) "fuzz case changes signature" true (plain <> fuzzed);
  Alcotest.(check bool) "sanitize and fuzz differ" true (sanitized <> fuzzed)

(* ------------------------------------------------------------------ *)
(* Deque edge cases.                                                   *)
(* ------------------------------------------------------------------ *)

let deque_singleton_steal () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_bottom d 7;
  check Alcotest.(option int) "thief takes the only element" (Some 7) (Sim.Deque.steal d);
  check Alcotest.(option int) "owner then sees empty" None (Sim.Deque.pop_bottom d);
  check Alcotest.bool "empty" true (Sim.Deque.is_empty d)

let deque_steal_races_bottom_pop () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_bottom d 1;
  Sim.Deque.push_bottom d 2;
  (* Thief and owner target opposite ends: the thief gets the oldest, the
     owner the newest, and neither sees the other's element. *)
  check Alcotest.(option int) "thief takes top (oldest)" (Some 1) (Sim.Deque.steal d);
  check Alcotest.(option int) "owner takes bottom (newest)" (Some 2) (Sim.Deque.pop_bottom d);
  check Alcotest.(option int) "nothing left to steal" None (Sim.Deque.steal d)

(* A failed steal attempt (fault-injected CAS loss) must leave the deque
   observably unchanged: same length, same order, same bottom. *)
let deque_state_after_failed_steal () =
  let d = Sim.Deque.create () in
  List.iter (Sim.Deque.push_bottom d) [ 1; 2; 3 ];
  let before = Sim.Deque.to_list d in
  (* The simulator models a failed steal as "no element removed": the fault
     layer simply never calls steal. The discipline to preserve is that
     subsequent operations behave as if the attempt never happened. *)
  check Alcotest.(list int) "order top->bottom" [ 1; 2; 3 ] before;
  check Alcotest.(option int) "bottom unchanged" (Some 3) (Sim.Deque.peek_bottom d);
  check Alcotest.(option int) "steal still sees oldest" (Some 1) (Sim.Deque.steal d);
  check Alcotest.(option int) "owner pop unaffected" (Some 3) (Sim.Deque.pop_bottom d);
  check Alcotest.(list int) "remaining element" [ 2 ] (Sim.Deque.to_list d)

(* ------------------------------------------------------------------ *)
(* Sanitized executor runs.                                            *)
(* ------------------------------------------------------------------ *)

let run_sanitized ?bug ?(backend = Sched.Policy.Sim) ?(workers = 4) ?(scale = 0.03) name =
  let entry = Workloads.Registry.find name in
  let (Ir.Program.Any p) = entry.Workloads.Registry.make scale in
  let seq = Baselines.Serial_exec.run_program p in
  let cap = (100 * seq.Sim.Run_result.work_cycles) + 10_000_000 in
  let rt = { Hbc_core.Rt_config.default with workers } in
  let san = Sanitizer.Checker.create (Sanitizer.Checker.config_of_rt rt) in
  let request =
    Hbc_core.Run_request.make ~backend ~max_cycles:cap ~trace:(Sanitizer.Checker.sink san)
      ~sanitize:true ()
  in
  Hbc_core.Executor.set_seeded_bug bug;
  let result =
    Fun.protect
      ~finally:(fun () -> Hbc_core.Executor.set_seeded_bug None)
      (fun () ->
        (* The beat applies to domains runs only: one every 16 polls makes a
           single-worker native schedule reproducible. *)
        try
          Ok
            (Sched_run.run ~request ~beat:(Hb_parallel.Native_run.Every_polls 16)
               (Sched_run.Hbc rt) p)
        with e -> Error (Printexc.to_string e))
  in
  Sanitizer.Checker.finish san;
  (san, result)

let has_invariant san inv =
  List.exists
    (fun (v : Sanitizer.Checker.violation) -> v.Sanitizer.Checker.invariant = inv)
    (Sanitizer.Checker.violations san)

(* The seeded bugs planted by the shared interpreter are caught on both
   backends: the simulator at P=4 and real domains at P=1. *)
let both_backends = [ (Sched.Policy.Sim, 4); (Sched.Policy.Domains, 1) ]

(* Seeded bug 1: a leftover task pushed twice must surface as a
   work-conservation overlap (some iterations execute twice). *)
let catches_duplicate_leftover () =
  List.iter
    (fun (backend, workers) ->
      let tag = Sched.Policy.backend_kind_to_string backend in
      let san, _ =
        run_sanitized ~bug:Hbc_core.Executor.Duplicate_leftover ~backend ~workers "spmv-powerlaw"
      in
      Alcotest.(check bool) (tag ^ " violations found") false (Sanitizer.Checker.ok san);
      Alcotest.(check bool)
        (tag ^ " work conservation flagged")
        true
        (has_invariant san Sanitizer.Checker.Work_conservation))
    both_backends

(* Seeded bug 2: a stolen task dropped on the floor is both a lost
   iteration range (work conservation) and a taken-but-never-executed task
   (deque discipline); the run itself cannot finish. *)
let catches_lost_stolen_task () =
  let san, result =
    run_sanitized ~bug:Hbc_core.Executor.Lose_stolen_task "spmv-powerlaw"
  in
  (match result with
  | Ok r -> Alcotest.(check bool) "run did not finish" true r.Sim.Run_result.dnf
  | Error _ -> (* a deadlock raise is an equally valid outcome *) ());
  Alcotest.(check bool) "violations found" false (Sanitizer.Checker.ok san);
  Alcotest.(check bool) "lost task flagged" true
    (has_invariant san Sanitizer.Checker.Deque_discipline)

(* Seeded bug 3: promoting the innermost loop under the outer-loop-first
   policy is flagged per promotion, while results stay correct. *)
let catches_inner_promotion () =
  List.iter
    (fun (backend, workers) ->
      let tag = Sched.Policy.backend_kind_to_string backend in
      let san, result =
        run_sanitized ~bug:Hbc_core.Executor.Promote_innermost ~backend ~workers "spmv-powerlaw"
      in
      (match result with
      | Ok r -> Alcotest.(check bool) (tag ^ " run still finishes") false r.Sim.Run_result.dnf
      | Error e -> Alcotest.failf "%s run crashed: %s" tag e);
      Alcotest.(check bool) (tag ^ " violations found") false (Sanitizer.Checker.ok san);
      Alcotest.(check bool)
        (tag ^ " policy violation flagged")
        true
        (has_invariant san Sanitizer.Checker.Promotion_policy))
    both_backends

(* The sanitizer is an observer: enabling it must not change one byte of
   the result, at any worker count, and must report zero violations on the
   real scheduler. *)
let clean_run_zero_violations_and_identical () =
  List.iter
    (fun workers ->
      let entry = Workloads.Registry.find "spmv-powerlaw" in
      let (Ir.Program.Any p) = entry.Workloads.Registry.make 0.03 in
      let rt = { Hbc_core.Rt_config.default with workers } in
      let plain = Sched_run.run (Sched_run.Hbc rt) p in
      let (Ir.Program.Any p2) = entry.Workloads.Registry.make 0.03 in
      let san = Sanitizer.Checker.create (Sanitizer.Checker.config_of_rt rt) in
      let request =
        Hbc_core.Run_request.make ~trace:(Sanitizer.Checker.sink san) ~sanitize:true ()
      in
      let sanitized = Sched_run.run ~request (Sched_run.Hbc rt) p2 in
      Sanitizer.Checker.finish san;
      let tag = Printf.sprintf "P=%d" workers in
      Alcotest.(check bool) (tag ^ " zero violations") true (Sanitizer.Checker.ok san);
      check Alcotest.int (tag ^ " makespan identical") plain.Sim.Run_result.makespan
        sanitized.Sim.Run_result.makespan;
      Alcotest.(check bool)
        (tag ^ " fingerprint identical") true
        (Float.equal plain.Sim.Run_result.fingerprint sanitized.Sim.Run_result.fingerprint);
      Alcotest.(check (list (pair string int)))
        (tag ^ " counters identical")
        (Sim.Metrics.counters plain.Sim.Run_result.metrics)
        (Sim.Metrics.counters sanitized.Sim.Run_result.metrics))
    [ 1; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* Fuzzer.                                                             *)
(* ------------------------------------------------------------------ *)

let fuzz_generation_deterministic () =
  let hashes seed =
    let rng = Sim.Sim_rng.create seed in
    List.init 5 (fun _ -> Sanitizer.Fuzz.case_hash (Sanitizer.Fuzz.gen rng))
  in
  check Alcotest.(list string) "same seed, same cases" (hashes 11) (hashes 11);
  Alcotest.(check bool) "different seed, different cases" true (hashes 11 <> hashes 12)

let fuzz_clean_cases_pass () =
  let rng = Sim.Sim_rng.create 5 in
  for _ = 1 to 3 do
    let c = Sanitizer.Fuzz.gen rng in
    let o = Sanitizer.Fuzz.run_case c in
    match o.Sanitizer.Fuzz.failure with
    | None -> ()
    | Some f ->
        Alcotest.failf "case %s failed: %s" c.Sanitizer.Fuzz.workload
          (Sanitizer.Fuzz.failure_describe f)
  done

let forced_case bug =
  {
    Sanitizer.Fuzz.seed = 99;
    workload = "spmv-powerlaw";
    scale = 0.03;
    workers = 4;
    mechanism = Hbc_core.Rt_config.Software_polling;
    chunk = Hbc_core.Compiled.Adaptive;
    policy = Hbc_core.Rt_config.Outer_loop_first;
    leftover = Hbc_core.Rt_config.Spawn;
    chunk_transferring = true;
    ac_target_polls = 8;
    ac_window = 8;
    plan = Sim.Fault_plan.none;
    bug = Some bug;
    native_beat = None;
  }

(* End to end: a forced scheduler bug fails, shrinks while preserving the
   failure class, JSON round-trips, and the replayed shrunk case reproduces
   the same class. *)
let fuzz_forced_failure_shrinks_and_replays () =
  let c = forced_case Hbc_core.Executor.Duplicate_leftover in
  let o = Sanitizer.Fuzz.run_case c in
  let f =
    match o.Sanitizer.Fuzz.failure with
    | Some f -> f
    | None -> Alcotest.fail "forced bug was not caught"
  in
  let kind = Sanitizer.Fuzz.failure_kind f in
  check Alcotest.string "failure class" "violation:work-conservation" kind;
  let shrunk, _spent = Sanitizer.Fuzz.shrink c ~kind in
  Alcotest.(check bool)
    "shrunk case is no larger" true
    (shrunk.Sanitizer.Fuzz.scale <= c.Sanitizer.Fuzz.scale
    && shrunk.Sanitizer.Fuzz.workers <= c.Sanitizer.Fuzz.workers);
  let json =
    Sanitizer.Fuzz.repro_to_json shrunk ~kind ~summary:(Sanitizer.Fuzz.failure_describe f)
  in
  let txt = Obs.Json.to_string json in
  match Sanitizer.Fuzz.repro_of_json (Obs.Json.parse txt) with
  | Error e -> Alcotest.failf "repro did not round-trip: %s" e
  | Ok (c2, expect) ->
      check Alcotest.string "expected kind round-trips" kind expect;
      check Alcotest.string "case round-trips byte-identically"
        (Sanitizer.Fuzz.case_hash shrunk) (Sanitizer.Fuzz.case_hash c2);
      let o2 = Sanitizer.Fuzz.run_case c2 in
      let got =
        match o2.Sanitizer.Fuzz.failure with
        | Some f2 -> Sanitizer.Fuzz.failure_kind f2
        | None -> "none"
      in
      check Alcotest.string "replay reproduces the class" kind got

let suite =
  [
    Alcotest.test_case "tee sums branch drops" `Quick tee_dropped_sum;
    Alcotest.test_case "tee captured is time-ordered" `Quick tee_captured_order;
    Alcotest.test_case "signature covers sanitize/fuzz bits" `Quick
      signature_covers_sanitizer_bits;
    Alcotest.test_case "deque: singleton steal" `Quick deque_singleton_steal;
    Alcotest.test_case "deque: steal races bottom pop" `Quick deque_steal_races_bottom_pop;
    Alcotest.test_case "deque: state after failed steal" `Quick deque_state_after_failed_steal;
    Alcotest.test_case "catches duplicated leftover" `Quick catches_duplicate_leftover;
    Alcotest.test_case "catches lost stolen task" `Quick catches_lost_stolen_task;
    Alcotest.test_case "catches innermost promotion" `Quick catches_inner_promotion;
    Alcotest.test_case "clean runs: zero violations, identical results" `Quick
      clean_run_zero_violations_and_identical;
    Alcotest.test_case "fuzz generation is deterministic" `Quick fuzz_generation_deterministic;
    Alcotest.test_case "fuzz: generated cases pass" `Quick fuzz_clean_cases_pass;
    Alcotest.test_case "fuzz: forced failure shrinks and replays" `Quick
      fuzz_forced_failure_shrinks_and_replays;
  ]
