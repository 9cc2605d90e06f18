(* Fault tolerance on the real domains backend: the portable chaos
   kinds, the starvation-watchdog ladder, and native pause/resume. The
   layer's cross-cutting contract carries over from the simulator —
   chaos may change performance, never results — plus one native-only
   obligation: the injected decision {e sequences} are reproducible
   from (plan seed, P), and at one worker under a deterministic beat
   the whole run is. *)

module Hb_par = Hb_parallel.Hb_par

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let prog () = Test_runtime.make_irregular ~rows:400 ~max_size:12 ~seed:7

let serial () = Baselines.Serial_exec.run_program (prog ())

let cfg workers = { Hbc_core.Rt_config.default with workers }

let run_native ?(request = Hbc_core.Run_request.default) ?(beat = 16) workers =
  let request = { request with Hbc_core.Run_request.backend = Sched.Policy.Domains } in
  Sched_run.run ~request
    ~beat:(Hb_parallel.Native_run.Every_polls beat)
    (Sched_run.Hbc (cfg workers)) (prog ())

(* A plan exercising every portable kind at once, hard enough that a run
   without the watchdog and the owed-wakeup re-issue would crawl or
   strand. *)
let heavy_plan =
  {
    Sim.Fault_plan.none with
    Sim.Fault_plan.seed = 0xC4A05;
    beat_drop_prob = 0.5;
    steal_fail_prob = 0.5;
    steal_fail_burst = 3;
    stall_prob = 0.3;
    stall_polls = 32;
    delay_wakeup_prob = 0.5;
  }

(* ---------------- plan codec and capability split ------------------ *)

let portable_codec_roundtrip () =
  let rng = Sim.Sim_rng.create 0xF0 in
  for _ = 1 to 25 do
    let plan = Sim.Fault_plan.random_portable rng in
    check_bool "portable plans name no simulator-only kinds" true
      (Sim.Fault_plan.simulator_only plan = []);
    check_bool "portable predicate agrees" true (Sim.Fault_plan.portable plan);
    (match Sim.Fault_plan.of_json (Sim.Fault_plan.to_json plan) with
    | Some back -> check_bool "portable plan round-trips" true (back = plan)
    | None -> Alcotest.fail "portable plan failed to parse back");
    (* The sim generator still round-trips and is still refused natively
       when it uses cycle-denominated kinds. *)
    let sim_plan = Sim.Fault_plan.random rng in
    match Sim.Fault_plan.of_json (Sim.Fault_plan.to_json sim_plan) with
    | Some back -> check_bool "sim plan round-trips" true (back = sim_plan)
    | None -> Alcotest.fail "sim plan failed to parse back"
  done;
  check_bool "jitter is simulator-only" true
    (Sim.Fault_plan.simulator_only
       { Sim.Fault_plan.none with Sim.Fault_plan.seed = 1; beat_drop_prob = 0.1; beat_jitter = 5 }
    <> [])

(* Two injectors built from the same (plan, P) answer an identical query
   sequence identically: the native chaos schedule is a pure function of
   the plan, not of wall time. *)
let injector_streams_reproducible () =
  let plan = heavy_plan in
  let drive () =
    let inj = Sim.Fault_injector.create plan ~num_workers:4 () in
    let log = ref [] in
    for round = 0 to 99 do
      let w = round mod 4 in
      log := Sim.Fault_injector.drop_beat inj ~worker:w :: !log;
      log := Sim.Fault_injector.steal_fails inj ~worker:w :: !log;
      log := (Sim.Fault_injector.stall_polls inj ~worker:w > 0) :: !log;
      log := Sim.Fault_injector.delay_wakeup inj ~worker:w :: !log
    done;
    !log
  in
  check_bool "identical decision sequences" true (drive () = drive ())

let capability_errors_are_precise () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s was accepted" name
  in
  expect_invalid "simulator-only plan on domains" (fun () ->
      let request =
        Hbc_core.Run_request.make
          ~fault_plan:{ Sim.Fault_plan.none with Sim.Fault_plan.seed = 1; beat_jitter = 100 }
          ()
      in
      run_native ~request 2);
  expect_invalid "pause under a wall-clock beat" (fun () ->
      Sched_run.run
        ~request:(Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ~pause_at:1_000 ())
        ~beat:(Hb_parallel.Native_run.Wall_us 50.0)
        (Sched_run.Hbc (cfg 1)) (prog ()));
  expect_invalid "pause with more than one worker" (fun () ->
      run_native ~request:(Hbc_core.Run_request.make ~pause_at:1_000 ()) 2)

(* --------------------------- chaos runs ---------------------------- *)

(* One worker, deterministic beat: the whole chaos run replays — equal
   results and equal injected-fault counts, run to run. *)
let chaos_deterministic_single_worker () =
  let go () =
    let request = Hbc_core.Run_request.make ~fault_plan:heavy_plan () in
    let r = run_native ~request 1 in
    let m = r.Sim.Run_result.metrics in
    ( r.Sim.Run_result.fingerprint,
      r.Sim.Run_result.work_cycles,
      m.Sim.Metrics.promotions,
      m.Sim.Metrics.faults_beats_dropped,
      m.Sim.Metrics.faults_steals_failed,
      m.Sim.Metrics.faults_stalls,
      m.Sim.Metrics.faults_stall_cycles,
      Sim.Metrics.downgrade_count m )
  in
  check_bool "chaos run replays byte-for-byte at P=1" true (go () = go ())

(* The same run against constants: pins the order of chaos draws, stall
   windows and watchdog downgrades at beat boundaries, and where their
   events land in the linearized trace. *)
let chaos_golden_row () =
  let request =
    Hbc_core.Run_request.make ~fault_plan:heavy_plan ~trace:(Obs.Trace.Sink.stream ()) ()
  in
  let r = run_native ~request 1 in
  let m = r.Sim.Run_result.metrics in
  Alcotest.(check string)
    "chaos row (P=1, Every_polls 16)"
    "fingerprint=0x1.3c31a27627628p+18 work=23545 promotions=8 drops=5 steals_failed=0 stalls=1 \
     stall_polls=18 wakeups=0 downgrades=1 trace=998d215b4ce46db0ea4be9eee6607adb"
    (Printf.sprintf
       "fingerprint=%h work=%d promotions=%d drops=%d steals_failed=%d stalls=%d stall_polls=%d \
        wakeups=%d downgrades=%d trace=%s"
       r.Sim.Run_result.fingerprint
       r.Sim.Run_result.work_cycles m.Sim.Metrics.promotions m.Sim.Metrics.faults_beats_dropped
       m.Sim.Metrics.faults_steals_failed m.Sim.Metrics.faults_stalls
       m.Sim.Metrics.faults_stall_cycles m.Sim.Metrics.faults_wakeups_delayed
       m.Sim.Metrics.downgrades (Test_sched.trace_digest r))

let chaos_never_changes_results () =
  let seq = serial () in
  List.iter
    (fun workers ->
      let request = Hbc_core.Run_request.make ~fault_plan:heavy_plan () in
      let r = run_native ~request workers in
      check_bool
        (Printf.sprintf "chaos result matches serial at P=%d" workers)
        true
        (Sim.Run_result.fingerprints_close seq r);
      check_int
        (Printf.sprintf "body work conserved at P=%d" workers)
        seq.Sim.Run_result.work_cycles r.Sim.Run_result.work_cycles;
      check_bool
        (Printf.sprintf "faults actually injected at P=%d" workers)
        true
        (Sim.Metrics.faults_injected r.Sim.Run_result.metrics > 0))
    [ 1; 2; 4 ]

(* Every wakeup suppressed: progress then rests entirely on owed wakeups,
   re-issued by the next wake, an idle worker or shutdown. The run must
   still finish, correctly. *)
let suppressed_wakeups_still_finish () =
  let seq = serial () in
  let plan =
    { Sim.Fault_plan.none with Sim.Fault_plan.seed = 3; delay_wakeup_prob = 1.0 }
  in
  let request = Hbc_core.Run_request.make ~fault_plan:plan () in
  let r = run_native ~request 4 in
  check_bool "all-wakeups-suppressed run matches serial" true
    (Sim.Run_result.fingerprints_close seq r)

(* Dense stalls with a hair-trigger watchdog: rung 1 must fire (polling
   downgrade, visible as Mechanism_downgrade and counted in metrics) and
   the run must still produce the serial answer. *)
let watchdog_downgrades_under_stalls () =
  let seq = serial () in
  let plan =
    {
      Sim.Fault_plan.none with
      Sim.Fault_plan.seed = 11;
      stall_prob = 1.0;
      stall_polls = 64;
    }
  in
  let sink = Obs.Trace.Sink.stream ~keep:(function
    | Obs.Trace.Mechanism_downgrade -> true
    | _ -> false) ()
  in
  let cfg = { (cfg 2) with Hbc_core.Rt_config.watchdog_k = 2 } in
  let request =
    Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ~fault_plan:plan ~trace:sink ()
  in
  let r =
    Sched_run.run ~request
      ~beat:(Hb_parallel.Native_run.Every_polls 8) (Sched_run.Hbc cfg) (prog ())
  in
  check_bool "watchdog tripped" true (Sim.Metrics.downgrade_count r.Sim.Run_result.metrics > 0);
  check_bool "downgrade visible in the trace" true (r.Sim.Run_result.trace <> []);
  check_bool "downgraded run still correct" true (Sim.Run_result.fingerprints_close seq r)

(* ------------------------- pause / resume -------------------------- *)

let ck_of (r : Sim.Run_result.t) =
  match r.Sim.Run_result.termination with
  | Sim.Run_result.Paused ck -> ck
  | t -> Alcotest.failf "expected a pause, got %s" (Sim.Run_result.termination_to_string t)

let traced ?fault_plan ?pause_at ?resume_from () =
  let sink = Obs.Trace.Sink.stream () in
  let request = Hbc_core.Run_request.make ?fault_plan ~trace:sink ?pause_at ?resume_from () in
  let r = run_native ~request 1 in
  ( r,
    List.map
      (fun (rec_ : Obs.Trace.record) ->
        (rec_.Obs.Trace.time, rec_.Obs.Trace.worker, rec_.Obs.Trace.event))
      r.Sim.Run_result.trace )

let pause_resume_byte_identical () =
  let full, full_evs = traced () in
  let paused, pre = traced ~pause_at:500 () in
  let ck = ck_of paused in
  let resumed, post = traced ~resume_from:ck () in
  check_bool "resume finished" true
    (resumed.Sim.Run_result.termination = Sim.Run_result.Finished);
  check_bool "fingerprint identical" true
    (resumed.Sim.Run_result.fingerprint = full.Sim.Run_result.fingerprint);
  check_int "work identical" full.Sim.Run_result.work_cycles resumed.Sim.Run_result.work_cycles;
  check_int "promotions identical"
    full.Sim.Run_result.metrics.Sim.Metrics.promotions
    resumed.Sim.Run_result.metrics.Sim.Metrics.promotions;
  check_int "episodes tile the stream" (List.length full_evs)
    (List.length pre + List.length post);
  check_bool "concatenation is the uninterrupted stream" true (pre @ post = full_evs)

(* The checkpoint must survive its codec: what the resume sees is the
   serialized form, exactly as a crash-recovery path would read it. *)
let pause_resume_through_codec () =
  let paused, _ = traced ~pause_at:500 () in
  let ck = ck_of paused in
  match Sim.Checkpoint_state.of_string (Sim.Checkpoint_state.to_string ck) with
  | Error e -> Alcotest.failf "native checkpoint did not round-trip: %s" e
  | Ok ck' ->
      check_bool "codec round-trip is byte-exact" true (Sim.Checkpoint_state.equal ck ck');
      let resumed, _ = traced ~resume_from:ck' () in
      let full, _ = traced () in
      check_bool "resume from decoded checkpoint matches" true
        (resumed.Sim.Run_result.fingerprint = full.Sim.Run_result.fingerprint)

(* Chaos and pause compose at one worker: the same plan on both sides of
   the boundary replays to the same final answer. *)
let pause_resume_under_chaos () =
  (* Dropped beats let adaptive chunking grow, so a chaos run crosses far
     fewer scheduling points than a fault-free one — pause early enough
     that the boundary is reached even with maximal chunks (the outer
     loop alone contributes one point per row). *)
  let plan = { heavy_plan with Sim.Fault_plan.delay_wakeup_prob = 0.0 } in
  let full, _ = traced ~fault_plan:plan () in
  let paused, _ = traced ~fault_plan:plan ~pause_at:300 () in
  let resumed, _ = traced ~fault_plan:plan ~resume_from:(ck_of paused) () in
  check_bool "chaos pause/resume matches the uninterrupted chaos run" true
    (resumed.Sim.Run_result.fingerprint = full.Sim.Run_result.fingerprint
    && resumed.Sim.Run_result.work_cycles = full.Sim.Run_result.work_cycles)

let resume_divergence_detected () =
  let paused, _ = traced ~pause_at:500 () in
  let ck = ck_of paused in
  let tampered = { ck with Sim.Checkpoint_state.work_cycles = ck.Sim.Checkpoint_state.work_cycles + 1 } in
  let resumed, _ = traced ~resume_from:tampered () in
  match resumed.Sim.Run_result.termination with
  | Sim.Run_result.Guard_aborted reason ->
      check_bool "names the divergence" true
        (String.length reason >= 17 && String.sub reason 0 17 = "resume-divergence")
  | t -> Alcotest.failf "tampered checkpoint accepted: %s" (Sim.Run_result.termination_to_string t)

(* ----------------------- park/wake stress -------------------------- *)

(* Repeated short pools: every run exercises park, ticket hand-off and
   shutdown wake. A lost wakeup here deadlocks. *)
let park_wake_stress () =
  for round = 1 to 3 do
    Hb_par.with_pool ~heartbeat_us:30.0 ~num_domains:4 (fun pool ->
        let n = 50_000 in
        let got =
          Hb_par.parallel_reduce pool ~lo:0 ~hi:n ~init:0
            ~body:(fun a i -> a + (i mod 7))
            ~combine:( + )
        in
        let want = ref 0 in
        for i = 0 to n - 1 do
          want := !want + (i mod 7)
        done;
        check_int (Printf.sprintf "round %d sum" round) !want got)
  done

(* Lost-wakeup regression: many short P=2 pools, each running promoted
   reductions and their joins. Iteration costs are pseudo-random, so the
   moment a thief finishes its stolen half falls anywhere around its join
   owner's spin-to-park step, and thousands of joins park per run. An
   owner that parks just as the thief's [finish_join] looks for parkers
   must still be woken, and so must a scavenger that parks as the pool
   shuts down: nothing else wakes them. The cycles run on their own
   domain under a deadline, so a worker left parked fails this test
   instead of hanging the suite. *)
let lost_wakeup_regression () =
  let cycles = 600 and reductions = 30 and n = 128 in
  let cost seed i = (((seed * 104729) + (i * 7919)) * 2654435761) lsr 7 land 4095 in
  let body seed acc i =
    let x = ref 0 in
    for k = 1 to cost seed i do
      x := Sys.opaque_identity (!x + k)
    done;
    acc + i + (!x land 0)
  in
  let want = n * (n - 1) / 2 in
  let finished = Atomic.make 0 and joined = Atomic.make 0 and stopped = Atomic.make false in
  let runner =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set stopped true)
          (fun () ->
            for c = 1 to cycles do
              Hb_par.with_pool ~heartbeat_us:5.0 ~num_domains:2 (fun pool ->
                  for r = 1 to reductions do
                    let body = body ((c * reductions) + r) in
                    let got = Hb_par.parallel_reduce pool ~lo:0 ~hi:n ~init:0 ~body ~combine:( + ) in
                    if got <> want then failwith (Printf.sprintf "sum %d, want %d" got want)
                  done;
                  if Hb_par.promotions pool > 0 then Atomic.incr joined);
              Atomic.incr finished
            done))
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get stopped) then
    Alcotest.failf "pool cycle %d of %d never finished: a parked worker missed its wakeup"
      (Atomic.get finished + 1) cycles;
  Domain.join runner;
  check_int "every cycle finished" cycles (Atomic.get finished);
  check_int "every cycle promoted and joined" cycles (Atomic.get joined)

(* The pool is the only domain a run starts: P=2 spawns exactly one. Domain
   ids are handed out in spawn order, so two probe domains around the run
   bracket every spawn it made. *)
let domains_spawned run =
  let probe () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  let before = probe () in
  let r = run () in
  let after = probe () in
  (r, after - before - 1)

let one_extra_domain_at_p2 () =
  let r, spawned = domains_spawned (fun () -> run_native 2) in
  check_bool "P=2 run matches serial" true (Sim.Run_result.fingerprints_close (serial ()) r);
  check_int "domains spawned by a P=2 run" 1 spawned

(* A TPAL engine carries its whole machine, so [with_machine] reaches it:
   workers=2 spawns one domain, not the 63 of the default 64 workers. *)
let tpal_takes_its_workers () =
  let engine = Sched_run.with_machine ~workers:2 ~seed:1 (Sched_run.tpal ~chunk:32) in
  let request = { Hbc_core.Run_request.default with backend = Sched.Policy.Domains } in
  let r, spawned =
    domains_spawned (fun () ->
        Sched_run.run ~request ~beat:(Hb_parallel.Native_run.Every_polls 16) engine (prog ()))
  in
  check_bool "tpal P=2 run matches serial" true
    (Sim.Run_result.fingerprints_close (serial ()) r);
  check_int "domains spawned by a tpal P=2 run" 1 spawned;
  check_int "workers reported" 2 (Sched_run.workers engine)

let suite =
  [
    Alcotest.test_case "plan: portable codec round-trip" `Quick portable_codec_roundtrip;
    Alcotest.test_case "injector: streams reproducible" `Quick injector_streams_reproducible;
    Alcotest.test_case "capability errors precise" `Quick capability_errors_are_precise;
    Alcotest.test_case "chaos: deterministic at P=1" `Slow chaos_deterministic_single_worker;
    Alcotest.test_case "chaos: golden row at P=1" `Slow chaos_golden_row;
    Alcotest.test_case "chaos: never changes results" `Slow chaos_never_changes_results;
    Alcotest.test_case "chaos: suppressed wakeups recover" `Slow suppressed_wakeups_still_finish;
    Alcotest.test_case "watchdog: downgrades under stalls" `Slow watchdog_downgrades_under_stalls;
    Alcotest.test_case "pause/resume: byte-identical" `Slow pause_resume_byte_identical;
    Alcotest.test_case "pause/resume: codec round-trip" `Slow pause_resume_through_codec;
    Alcotest.test_case "pause/resume: under chaos" `Slow pause_resume_under_chaos;
    Alcotest.test_case "pause/resume: divergence detected" `Slow resume_divergence_detected;
    Alcotest.test_case "park/wake: pool stress" `Slow park_wake_stress;
    Alcotest.test_case "park/wake: no lost wakeup in 600 pools" `Slow lost_wakeup_regression;
    Alcotest.test_case "park/wake: P=2 spawns one domain" `Quick one_extra_domain_at_p2;
    Alcotest.test_case "tpal: P=2 spawns one domain" `Quick tpal_takes_its_workers;
  ]
