(* Multi-tenant job server: admission, fairness, deadlines, breakers,
   metered promotion budgets, and the determinism they all hang off. *)

let check = Alcotest.check

let tenant = Serve.Server.tenant_default

let base cfg = { Serve.Server.default_config with Serve.Server.sanitize = true; seed = 42 } |> cfg

let run cfg = Serve.Server.run (base cfg)

let outcomes (r : Serve.Server.result) =
  List.map (fun (j : Serve.Server.job_report) -> (j.Serve.Server.tenant, j.Serve.Server.outcome)) r.Serve.Server.reports

(* ------------------------------------------------------------------ *)
(* Arrival processes.                                                  *)
(* ------------------------------------------------------------------ *)

let arrival_roundtrip () =
  List.iter
    (fun p ->
      let s = Serve.Arrival.to_string p in
      match Serve.Arrival.of_string s with
      | Some q -> check Alcotest.string "roundtrip" s (Serve.Arrival.to_string q)
      | None -> Alcotest.failf "of_string failed on %s" s)
    [
      Serve.Arrival.Poisson { mean_gap = 800.0 };
      Serve.Arrival.Burst { period = 5_000; size = 4 };
      Serve.Arrival.Adversarial { quiet = 20_000; burst = 8 };
    ];
  check Alcotest.bool "garbage rejected" true (Serve.Arrival.of_string "warp:9" = None)

let arrival_monotone_and_seeded () =
  let times p seed =
    Serve.Arrival.times p ~rng:(Sim.Sim_rng.create seed) ~jobs:32
  in
  List.iter
    (fun p ->
      let ts = times p 7 in
      check Alcotest.int "count" 32 (List.length ts);
      ignore
        (List.fold_left
           (fun prev t ->
             check Alcotest.bool "nondecreasing" true (t >= prev && t >= 0);
             t)
           0 ts);
      check Alcotest.bool "seed-deterministic" true (ts = times p 7))
    [
      Serve.Arrival.Poisson { mean_gap = 500.0 };
      Serve.Arrival.Burst { period = 100; size = 3 };
      Serve.Arrival.Adversarial { quiet = 1_000; burst = 5 };
    ]

(* ------------------------------------------------------------------ *)
(* Breaker state machine.                                              *)
(* ------------------------------------------------------------------ *)

let breaker_trip_and_recover () =
  let cfg = { Serve.Breaker.default_config with Serve.Breaker.failure_threshold = 2; cooldown = 100; probe_budget = 1 } in
  let b = Serve.Breaker.create ~config:cfg ~on_transition:(fun ~from_state:_ ~to_state:_ -> ()) () in
  check Alcotest.bool "closed admits" true (Serve.Breaker.admit b ~now:0);
  Serve.Breaker.record b ~now:1 ~ok:false;
  check Alcotest.bool "one failure still closed" true (Serve.Breaker.admit b ~now:2);
  Serve.Breaker.record b ~now:3 ~ok:false;
  check Alcotest.bool "threshold trips open" false (Serve.Breaker.admit b ~now:4);
  check Alcotest.bool "still cooling" false (Serve.Breaker.admit b ~now:50);
  check Alcotest.bool "cooldown over: probe admitted" true (Serve.Breaker.admit b ~now:104);
  check Alcotest.bool "probe budget spent" false (Serve.Breaker.admit b ~now:105);
  Serve.Breaker.record b ~now:110 ~ok:true;
  check Alcotest.bool "probe success closes" true (Serve.Breaker.admit b ~now:111)

let breaker_backoff_grows () =
  let cfg =
    { Serve.Breaker.failure_threshold = 1; cooldown = 100; backoff = 2.0; probe_budget = 1 }
  in
  let b = Serve.Breaker.create ~config:cfg ~on_transition:(fun ~from_state:_ ~to_state:_ -> ()) () in
  Serve.Breaker.record b ~now:0 ~ok:false;
  check Alcotest.bool "first cooldown 100" true (Serve.Breaker.admit b ~now:100);
  Serve.Breaker.record b ~now:101 ~ok:false;
  (* second open: cooldown doubles *)
  check Alcotest.bool "not after 100" false (Serve.Breaker.admit b ~now:201);
  check Alcotest.bool "after 200" true (Serve.Breaker.admit b ~now:301)

(* Half-open probe accounting: only outcomes of jobs admitted AS probes
   may close the breaker; pre-trip stragglers are stale evidence. *)
let breaker_stale_success_not_probe () =
  let cfg =
    { Serve.Breaker.default_config with Serve.Breaker.failure_threshold = 2; cooldown = 100; probe_budget = 2 }
  in
  let b = Serve.Breaker.create ~config:cfg ~on_transition:(fun ~from_state:_ ~to_state:_ -> ()) () in
  Serve.Breaker.record b ~now:1 ~ok:false;
  Serve.Breaker.record b ~now:2 ~ok:false;
  check Alcotest.bool "tripped" true (Serve.Breaker.state b = Serve.Breaker.Open);
  check Alcotest.bool "probe admitted after cooldown" true (Serve.Breaker.admit b ~now:102);
  check Alcotest.bool "half-open" true (Serve.Breaker.state b = Serve.Breaker.Half_open);
  (* jobs admitted before the trip finish during the half-open window:
     their successes must not count toward re-closing *)
  Serve.Breaker.record ~probe:false b ~now:103 ~ok:true;
  Serve.Breaker.record ~probe:false b ~now:104 ~ok:true;
  check Alcotest.bool "stale successes ignored" true (Serve.Breaker.state b = Serve.Breaker.Half_open);
  check Alcotest.bool "second probe admitted" true (Serve.Breaker.admit b ~now:105);
  Serve.Breaker.record b ~now:106 ~ok:true;
  check Alcotest.bool "one probe success is not enough" true
    (Serve.Breaker.state b = Serve.Breaker.Half_open);
  Serve.Breaker.record b ~now:107 ~ok:true;
  check Alcotest.bool "probe budget of successes closes" true
    (Serve.Breaker.state b = Serve.Breaker.Closed)

(* trip -> cooldown -> half-open -> re-trip under simultaneous arrivals:
   two arrivals at the same instant share the probe budget, a failing
   probe re-opens with doubled backoff, and a late probe success while
   re-opened changes nothing. *)
let breaker_retrip_under_simultaneous_arrivals () =
  let cfg =
    {
      Serve.Breaker.failure_threshold = 2;
      cooldown = 100;
      backoff = 2.0;
      probe_budget = 2;
    }
  in
  let opens = ref 0 in
  let b =
    Serve.Breaker.create ~config:cfg
      ~on_transition:(fun ~from_state:_ ~to_state -> if to_state = Serve.Breaker.Open then incr opens)
      ()
  in
  (* simultaneous failures trip once *)
  Serve.Breaker.record b ~now:1 ~ok:false;
  Serve.Breaker.record b ~now:1 ~ok:false;
  check Alcotest.int "one open" 1 !opens;
  check Alcotest.int "retry_at is the cooldown end" 101 (Serve.Breaker.retry_at b ~now:50);
  check Alcotest.bool "cooling: both simultaneous arrivals denied" false
    (Serve.Breaker.admit b ~now:50 || Serve.Breaker.admit b ~now:50);
  (* cooldown over: two simultaneous arrivals share the probe budget *)
  check Alcotest.bool "first probe" true (Serve.Breaker.admit b ~now:101);
  check Alcotest.bool "second probe" true (Serve.Breaker.admit b ~now:101);
  check Alcotest.bool "budget spent: third denied" false (Serve.Breaker.admit b ~now:101);
  (* one probe fails: re-trip with doubled cooldown *)
  Serve.Breaker.record b ~now:110 ~ok:false;
  check Alcotest.int "re-tripped" 2 !opens;
  (* the surviving probe's late success changes nothing while open *)
  Serve.Breaker.record b ~now:111 ~ok:true;
  check Alcotest.bool "still open" true (Serve.Breaker.state b = Serve.Breaker.Open);
  check Alcotest.int "backoff doubles the retry" 310 (Serve.Breaker.retry_at b ~now:120);
  check Alcotest.bool "doubled cooldown still holds" false (Serve.Breaker.admit b ~now:309);
  check Alcotest.bool "admits after the doubled cooldown" true (Serve.Breaker.admit b ~now:310)

(* ------------------------------------------------------------------ *)
(* Promotion meter.                                                    *)
(* ------------------------------------------------------------------ *)

let meter_refill_grant_refund () =
  let refills = ref [] in
  let cfg = { Serve.Meter.refill_period = 100; refill_amount = 10; burst_cap = 15 } in
  let m =
    Serve.Meter.create ~config:cfg
      ~weights:[| 1; 2 |]
      ~emit:(fun ~time ~tenant ~amount -> refills := (time, tenant, amount) :: !refills)
      ()
  in
  Serve.Meter.advance m ~now:0;
  check Alcotest.int "epoch 0 refill" 10 (Serve.Meter.balance m ~tenant:0);
  check Alcotest.int "weighted refill" 20 (Serve.Meter.balance m ~tenant:1);
  check Alcotest.int "grant min(want,balance)" 10 (Serve.Meter.grant m ~tenant:0 ~want:64);
  check Alcotest.int "drained" 0 (Serve.Meter.balance m ~tenant:0);
  Serve.Meter.refund m ~now:5 ~tenant:0 4;
  check Alcotest.int "refund credits" 4 (Serve.Meter.balance m ~tenant:0);
  Serve.Meter.advance m ~now:250;
  (* epochs 1 and 2 credit 10 each, clamped at burst cap 15 *)
  check Alcotest.int "burst cap" 15 (Serve.Meter.balance m ~tenant:0);
  check Alcotest.bool "every refill emitted" true (List.length !refills > 0);
  List.iter (fun (_, _, a) -> check Alcotest.bool "positive" true (a > 0)) !refills

(* ------------------------------------------------------------------ *)
(* Admission queue.                                                    *)
(* ------------------------------------------------------------------ *)

let admission_zero_capacity () =
  let q = Serve.Admission.create ~capacity:0 ~weights:[| 1; 1 |] in
  check Alcotest.bool "offer refused" false (Serve.Admission.offer q ~tenant:0 ~priority:0 "a");
  check Alcotest.int "empty" 0 (Serve.Admission.length q)

let admission_weighted_fairness () =
  let q = Serve.Admission.create ~capacity:16 ~weights:[| 1; 2 |] in
  for i = 0 to 3 do
    ignore (Serve.Admission.offer q ~tenant:0 ~priority:0 (Printf.sprintf "a%d" i));
    ignore (Serve.Admission.offer q ~tenant:1 ~priority:0 (Printf.sprintf "b%d" i))
  done;
  (* Equal cost per pop; tenant 1 has twice the weight, so it gets served
     roughly twice as often while both lanes are busy. *)
  let served = ref [] in
  let rec drain () =
    match Serve.Admission.pop q ~fits:(fun _ -> true) with
    | None -> ()
    | Some (t, _) ->
        Serve.Admission.charge q ~tenant:t ~cost:100;
        served := t :: !served;
        drain ()
  in
  drain ();
  let first_six = List.filteri (fun i _ -> i < 6) (List.rev !served) in
  let t1 = List.length (List.filter (fun t -> t = 1) first_six) in
  check Alcotest.int "8 served" 8 (List.length !served);
  check Alcotest.bool "weight-2 tenant gets most of the early slots" true (t1 >= 3)

let admission_priority_within_lane () =
  let q = Serve.Admission.create ~capacity:8 ~weights:[| 1 |] in
  ignore (Serve.Admission.offer q ~tenant:0 ~priority:0 "low");
  ignore (Serve.Admission.offer q ~tenant:0 ~priority:5 "high");
  ignore (Serve.Admission.offer q ~tenant:0 ~priority:5 "high2");
  (match Serve.Admission.pop q ~fits:(fun _ -> true) with
  | Some (_, p) -> check Alcotest.string "highest priority first" "high" p
  | None -> Alcotest.fail "pop");
  match Serve.Admission.pop q ~fits:(fun _ -> true) with
  | Some (_, p) -> check Alcotest.string "FIFO within priority" "high2" p
  | None -> Alcotest.fail "pop"

let admission_backfill () =
  let q = Serve.Admission.create ~capacity:8 ~weights:[| 1; 1 |] in
  ignore (Serve.Admission.offer q ~tenant:0 ~priority:0 8);
  (* wide job *)
  ignore (Serve.Admission.offer q ~tenant:1 ~priority:0 2);
  (* narrow job *)
  match Serve.Admission.pop q ~fits:(fun w -> w <= 4) with
  | Some (t, w) ->
      check Alcotest.int "narrow job backfills" 2 w;
      check Alcotest.int "from the other lane" 1 t
  | None -> Alcotest.fail "backfill should serve the narrow job"

(* ------------------------------------------------------------------ *)
(* Server: overload edge cases (zero capacity, simultaneous arrivals,  *)
(* byte-identical reruns).                                             *)
(* ------------------------------------------------------------------ *)

let small_tenants =
  [|
    { tenant with Serve.Server.jobs = 3; scale = 0.01 };
    {
      tenant with
      Serve.Server.jobs = 3;
      scale = 0.01;
      workloads = [ "mandelbrot" ];
      arrival = Serve.Arrival.Burst { period = 50_000; size = 3 };
    };
  |]

let zero_capacity_sheds_everything () =
  let r = run (fun c -> { c with Serve.Server.tenants = small_tenants; queue_capacity = 0 }) in
  let s = r.Serve.Server.stats in
  check Alcotest.int "all submitted" 6 s.Serve.Server.submitted;
  check Alcotest.int "all shed" 6 s.Serve.Server.shed;
  check Alcotest.int "none admitted" 0 s.Serve.Server.admitted;
  List.iter
    (function
      | _, Serve.Server.Rejected "queue-full" -> ()
      | _, o -> Alcotest.failf "expected queue-full shed, got %s" (Serve.Server.outcome_name o))
    (outcomes r);
  check Alcotest.int "no violations" 0 (List.length r.Serve.Server.violations)

let simultaneous_arrivals_are_ordered () =
  (* A burst of 3 jobs at t=0 from each of two tenants: admission order
     must be total and reproducible (tenant id then per-tenant index). *)
  let burst =
    Array.map
      (fun t -> { t with Serve.Server.arrival = Serve.Arrival.Burst { period = 1_000_000; size = 3 } })
      small_tenants
  in
  let r1 = run (fun c -> { c with Serve.Server.tenants = burst }) in
  let r2 = run (fun c -> { c with Serve.Server.tenants = burst }) in
  check Alcotest.int "all admitted" 6 r1.Serve.Server.stats.Serve.Server.admitted;
  check Alcotest.bool "same outcomes" true (outcomes r1 = outcomes r2);
  check Alcotest.string "byte-identical decision journals" r1.Serve.Server.decisions
    r2.Serve.Server.decisions

let equal_seeds_byte_identical () =
  let mk () =
    run (fun c ->
        {
          c with
          Serve.Server.tenants = small_tenants;
          queue_capacity = 2;
          verify = true;
          seed = 1234;
        })
  in
  let r1 = mk () and r2 = mk () in
  check Alcotest.string "decisions" r1.Serve.Server.decisions r2.Serve.Server.decisions;
  check Alcotest.bool "reports" true (r1.Serve.Server.reports = r2.Serve.Server.reports);
  check Alcotest.bool "stats" true (r1.Serve.Server.stats = r2.Serve.Server.stats)

(* ------------------------------------------------------------------ *)
(* Deadlines: structured, isolated, conserved.                         *)
(* ------------------------------------------------------------------ *)

let deadline_cuts_only_its_job () =
  let tenants =
    [|
      { tenant with Serve.Server.jobs = 2; scale = 0.01; deadline = Some (2_000, 2_000) };
      { tenant with Serve.Server.jobs = 2; scale = 0.01; workloads = [ "mandelbrot" ] };
    |]
  in
  let r = run (fun c -> { c with Serve.Server.tenants = tenants; verify = true }) in
  List.iter
    (fun (t, o) ->
      match (t, o) with
      | 0, Serve.Server.Deadline_exceeded -> ()
      | 0, o -> Alcotest.failf "tenant 0 should deadline, got %s" (Serve.Server.outcome_name o)
      | 1, Serve.Server.Completed -> ()
      | _, o -> Alcotest.failf "tenant 1 should complete, got %s" (Serve.Server.outcome_name o))
    (outcomes r);
  check Alcotest.int "no violations" 0 (List.length r.Serve.Server.violations);
  (* partial results journaled: deadline jobs still report service + work *)
  List.iter
    (fun (j : Serve.Server.job_report) ->
      if j.Serve.Server.outcome = Serve.Server.Deadline_exceeded then begin
        check Alcotest.bool "service recorded" true (j.Serve.Server.service_cycles <> None);
        check Alcotest.bool "started" true (j.Serve.Server.start_time <> None)
      end)
    r.Serve.Server.reports

(* The OpenMP service runs inside the same simulated-run envelope as the
   heartbeat service, so a deadline shorter than any job cuts every job. *)
let omp_service_honours_deadlines () =
  let tenants =
    [| { tenant with Serve.Server.jobs = 4; scale = 0.01; deadline = Some (2_000, 2_000) } |]
  in
  let r =
    run (fun c ->
        {
          c with
          Serve.Server.tenants = tenants;
          service = Sched_run.Openmp (Baselines.Openmp.dynamic ());
        })
  in
  check Alcotest.int "four jobs" 4 (List.length r.Serve.Server.reports);
  List.iter
    (fun (_, o) ->
      if o <> Serve.Server.Deadline_exceeded then
        Alcotest.failf "omp job should deadline, got %s" (Serve.Server.outcome_name o))
    (outcomes r);
  check Alcotest.int "no violations" 0 (List.length r.Serve.Server.violations)

(* Satellite regression: one job's cycle budget cannot kill a co-scheduled
   job — budgets are per-job engine watchdogs, not pool-global state. *)
let budget_exhaustion_is_isolated () =
  let tenants =
    [|
      { tenant with Serve.Server.jobs = 3; scale = 0.01; cycle_budget = Some (1_500, 1_500) };
      { tenant with Serve.Server.jobs = 3; scale = 0.01; workloads = [ "mandelbrot" ] };
    |]
  in
  let r = run (fun c -> { c with Serve.Server.tenants = tenants; verify = true }) in
  List.iter
    (fun (t, o) ->
      match (t, o) with
      | 0, Serve.Server.Failed "budget" -> ()
      | 0, Serve.Server.Rejected "breaker-open" -> () (* quarantined after repeated failures *)
      | 0, o -> Alcotest.failf "tenant 0 should fail its budget, got %s" (Serve.Server.outcome_name o)
      | 1, Serve.Server.Completed -> ()
      | _, o -> Alcotest.failf "tenant 1 must be unaffected, got %s" (Serve.Server.outcome_name o))
    (outcomes r);
  check Alcotest.int "no violations" 0 (List.length r.Serve.Server.violations)

let faulty_tenant_trips_breaker () =
  let plan =
    {
      Sim.Fault_plan.none with
      Sim.Fault_plan.seed = 5;
      beat_drop_prob = 0.3;
      beat_jitter = 1_000;
      steal_fail_prob = 0.3;
      steal_fail_burst = 2;
      stall_prob = 0.1;
      stall_cycles = 500;
    }
  in
  let tenants =
    [|
      {
        tenant with
        Serve.Server.jobs = 8;
        scale = 0.01;
        arrival = Serve.Arrival.Poisson { mean_gap = 2_000.0 };
        cycle_budget = Some (1_500, 1_500);
        fault_plan = Some plan;
      };
      { tenant with Serve.Server.jobs = 3; scale = 0.01; workloads = [ "kmeans" ] };
    |]
  in
  let r =
    run (fun c ->
        {
          c with
          Serve.Server.tenants = tenants;
          breaker =
            { Serve.Breaker.default_config with Serve.Breaker.failure_threshold = 2; cooldown = 1_000_000 };
        })
  in
  let s = r.Serve.Server.stats in
  check Alcotest.bool "breaker opened" true (s.Serve.Server.breaker_opens >= 1);
  let quarantined =
    List.exists (fun (t, o) -> t = 0 && o = Serve.Server.Rejected "breaker-open") (outcomes r)
  in
  check Alcotest.bool "later jobs quarantined" true quarantined;
  List.iter
    (fun (t, o) ->
      if t = 1 && o <> Serve.Server.Completed then
        Alcotest.failf "healthy tenant hit %s" (Serve.Server.outcome_name o))
    (outcomes r);
  check Alcotest.int "no violations" 0 (List.length r.Serve.Server.violations)

(* ------------------------------------------------------------------ *)
(* Promotion budgets: metered, conserved, gracefully serial at zero.   *)
(* ------------------------------------------------------------------ *)

let promotions_never_exceed_grant () =
  let r =
    run (fun c ->
        {
          c with
          Serve.Server.tenants = small_tenants;
          meter = { Serve.Meter.refill_period = 50_000; refill_amount = 4; burst_cap = 8 };
        })
  in
  List.iter
    (fun (j : Serve.Server.job_report) ->
      check Alcotest.bool "promotions <= granted" true (j.Serve.Server.promotions <= j.Serve.Server.granted))
    r.Serve.Server.reports;
  check Alcotest.int "budget conservation holds" 0 (List.length r.Serve.Server.violations)

let zero_promotion_budget_runs_serial () =
  let entry = Workloads.Registry.find "plus-reduce-array" in
  let (Ir.Program.Any p) = entry.Workloads.Registry.make 0.01 in
  let serial = Baselines.Serial_exec.run_program p in
  let rt = { Hbc_core.Rt_config.default with Hbc_core.Rt_config.workers = 4; seed = 3 } in
  let r =
    Sched_run.run ~request:(Hbc_core.Run_request.make ~promotion_budget:0 ()) (Sched_run.Hbc rt) p
  in
  check Alcotest.int "no promotions at zero budget" 0 r.Sim.Run_result.metrics.Sim.Metrics.promotions;
  check Alcotest.bool "still the right answer" true (Sim.Run_result.fingerprints_close serial r);
  (* and a metered run spends at most its budget *)
  let r2 =
    Sched_run.run ~request:(Hbc_core.Run_request.make ~promotion_budget:3 ()) (Sched_run.Hbc rt) p
  in
  check Alcotest.bool "budgeted run bounded" true
    (r2.Sim.Run_result.metrics.Sim.Metrics.promotions <= 3);
  check Alcotest.bool "budgeted run correct" true (Sim.Run_result.fingerprints_close serial r2)

(* ------------------------------------------------------------------ *)
(* Job conservation.                                                   *)
(* ------------------------------------------------------------------ *)

let every_job_reaches_one_terminal_state () =
  let r =
    run (fun c ->
        {
          c with
          Serve.Server.tenants =
            Array.map
              (fun t ->
                { t with Serve.Server.deadline = Some (10_000, 400_000); jobs = 4 })
              small_tenants;
          queue_capacity = 3;
        })
  in
  let s = r.Serve.Server.stats in
  check Alcotest.int "reports cover submissions" s.Serve.Server.submitted
    (List.length r.Serve.Server.reports);
  check Alcotest.int "terminal outcomes partition submissions" s.Serve.Server.submitted
    (s.Serve.Server.shed + s.Serve.Server.completed + s.Serve.Server.deadline_exceeded
   + s.Serve.Server.failed);
  let ids = List.map (fun (j : Serve.Server.job_report) -> j.Serve.Server.job) r.Serve.Server.reports in
  check Alcotest.bool "each job exactly once" true (List.sort_uniq compare ids = List.sort compare ids);
  check Alcotest.int "checker agrees" 0 (List.length r.Serve.Server.violations)

(* ------------------------------------------------------------------ *)
(* Preempt–resume policy and WAL crash recovery.                       *)
(* ------------------------------------------------------------------ *)

(* One tenant, a quantum far below each job's makespan: under
   [Pause_and_requeue] every job must checkpoint/resume many times and
   still complete with a fingerprint matching its serial reference. *)
let pause_cfg c =
  {
    c with
    Serve.Server.tenants =
      [|
        {
          tenant with
          Serve.Server.arrival = Serve.Arrival.Burst { period = 30_000; size = 3 };
          jobs = 3;
          scale = 0.01;
          workers_wanted = 2;
          deadline = Some (8_000, 8_000);
        };
      |];
    verify = true;
    preempt = Serve.Server.Pause_and_requeue;
    max_preempts = 50;
  }

let pause_policy_completes () =
  let r = run pause_cfg in
  let s = r.Serve.Server.stats in
  check Alcotest.int "all jobs complete" 3 s.Serve.Server.completed;
  check Alcotest.bool "jobs were checkpointed" true (s.Serve.Server.checkpointed > 0);
  check Alcotest.int "every checkpoint resumed" s.Serve.Server.checkpointed s.Serve.Server.resumed;
  check Alcotest.int "no violations" 0 (List.length r.Serve.Server.violations);
  List.iter
    (fun (j : Serve.Server.job_report) ->
      check Alcotest.bool "episodes counted" true (j.Serve.Server.episodes > 0);
      check Alcotest.bool "fingerprint matches serial reference" false j.Serve.Server.mismatch;
      check Alcotest.bool "promotions within cumulative grant" true
        (j.Serve.Server.promotions <= j.Serve.Server.granted))
    r.Serve.Server.reports

let cancel_vs_pause_contrast () =
  let cancel = run (fun c -> { (pause_cfg c) with Serve.Server.preempt = Serve.Server.Cancel }) in
  let s = cancel.Serve.Server.stats in
  check Alcotest.int "cancel: the tight deadline kills everything" 0 s.Serve.Server.completed;
  check Alcotest.int "cancel: all deadline-exceeded" 3 s.Serve.Server.deadline_exceeded;
  check Alcotest.int "cancel: nothing checkpointed" 0 s.Serve.Server.checkpointed

let pause_policy_deterministic () =
  let a = run pause_cfg and b = run pause_cfg in
  check Alcotest.string "decision journals byte-identical" a.Serve.Server.decisions
    b.Serve.Server.decisions

(* The lifecycle trace export and the decision journal of one sanitized
   pause-and-requeue campaign, pinned by digest. *)
let pause_outputs_pinned () =
  let r = run pause_cfg in
  let md5 s = Digest.to_hex (Digest.string s) in
  let export =
    Obs.Perfetto.instants ~process_name:"hbc-serve"
      (List.map (fun (time, ev) -> (time, Serve.Lifecycle.event_name ev)) r.Serve.Server.events)
  in
  check Alcotest.string "chrome export" "7593139725c6e4449628ad058dd5ce60" (md5 export);
  check Alcotest.string "decisions" "2e18d31e957dcd6214f28d77e9f566e1" (md5 r.Serve.Server.decisions)

let with_temp_wal f =
  let path = Filename.temp_file "hbc-test" ".wal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let wal_kill_and_recover () =
  let fresh = run pause_cfg in
  with_temp_wal (fun path ->
      (match
         run (fun c ->
             { (pause_cfg c) with Serve.Server.wal = Some path; wal_kill_after = Some 12 })
       with
      | _ -> Alcotest.fail "kill hook did not fire"
      | exception Serve.Server.Killed -> ());
      let recovered = run (fun c -> { (pause_cfg c) with Serve.Server.wal = Some path }) in
      check Alcotest.int "committed prefix replayed" 12 recovered.Serve.Server.wal_replayed;
      check Alcotest.string "decisions byte-identical after recovery"
        fresh.Serve.Server.decisions recovered.Serve.Server.decisions;
      check Alcotest.int "zero lost jobs" fresh.Serve.Server.stats.Serve.Server.submitted
        recovered.Serve.Server.stats.Serve.Server.submitted;
      check Alcotest.int "completions preserved" fresh.Serve.Server.stats.Serve.Server.completed
        recovered.Serve.Server.stats.Serve.Server.completed;
      (* a second recovery over the now-complete log replays everything *)
      let again = run (fun c -> { (pause_cfg c) with Serve.Server.wal = Some path }) in
      check Alcotest.string "idempotent recovery" fresh.Serve.Server.decisions
        again.Serve.Server.decisions)

let wal_foreign_log_rejected () =
  with_temp_wal (fun path ->
      ignore (run (fun c -> { (pause_cfg c) with Serve.Server.wal = Some path }));
      match run (fun c -> { (pause_cfg c) with Serve.Server.wal = Some path; seed = 43 }) with
      | _ -> Alcotest.fail "a foreign campaign's WAL was accepted"
      | exception Serve.Server.Wal _ -> ())

(* ------------------------------------------------------------------ *)
(* Serve-mode fuzz plumbing.                                           *)
(* ------------------------------------------------------------------ *)

let gen_mix_is_seeded () =
  let m1 = Serve.Fuzz.gen_mix (Sim.Sim_rng.create 11) in
  let m2 = Serve.Fuzz.gen_mix (Sim.Sim_rng.create 11) in
  let m3 = Serve.Fuzz.gen_mix (Sim.Sim_rng.create 12) in
  check Alcotest.bool "equal seeds equal mixes" true (m1 = m2);
  check Alcotest.bool "different seeds differ" true (m1 <> m3);
  Array.iter
    (fun (t : Serve.Server.tenant_spec) ->
      let s = Serve.Arrival.to_string t.Serve.Server.arrival in
      check Alcotest.bool "arrival codec round-trips" true
        (Option.map Serve.Arrival.to_string (Serve.Arrival.of_string s) = Some s))
    m1.Serve.Server.tenants

(* The mix generator's draws, pinned through its description: moving the
   generator must keep the RNG draw order. *)
let mix_describe_pinned () =
  let describe seed = Serve.Fuzz.describe (Serve.Fuzz.gen_mix (Sim.Sim_rng.create seed)) in
  check Alcotest.string "seed 11"
    "mix seed=222849 pool=16 queue=8 policy=cancel tenants=[burst:21320:2 jobs=6 w=11; \
     adversarial:44630:4 jobs=4 w=14]"
    (describe 11);
  check Alcotest.string "seed 12"
    "mix seed=718079 pool=4 queue=6 policy=cancel tenants=[adversarial:48766:6 jobs=3 w=2 \
     dl=120596..361788; poisson:8595 jobs=4 w=3 dl=105737..317211]"
    (describe 12)

let tiny_mix_passes_differentially () =
  let m =
    {
      Serve.Server.default_config with
      Serve.Server.seed = 77;
      pool = 4;
      queue_capacity = 4;
      preempt = Serve.Server.Pause_and_requeue;
      sanitize = true;
      verify = true;
      tenants =
        [|
          {
            tenant with
            Serve.Server.arrival = Serve.Arrival.Burst { period = 100_000; size = 2 };
            jobs = 2;
            workloads = [ "plus-reduce-array" ];
            scale = 0.01;
            workers_wanted = 2;
            promotion_want = 8;
          };
        |];
    }
  in
  let o = Serve.Fuzz.run_mix m in
  check Alcotest.int "no failures" 0 (List.length o.Serve.Fuzz.failures);
  check Alcotest.int "both jobs completed" 2
    o.Serve.Fuzz.result.Serve.Server.stats.Serve.Server.completed

(* ------------------------------------------------------------------ *)
(* Lifecycle invariants on hand-built event sequences.                 *)
(* ------------------------------------------------------------------ *)

module L = Serve.Lifecycle

(* Replay [(time, event)] through the lifecycle check and return every
   violation as (invariant name, time, message). *)
let lifecycle_violations events =
  let l = L.create () in
  List.iter (fun (time, ev) -> L.record l ~time ev) events;
  L.finish l;
  List.map
    (fun (v : L.violation) -> (L.invariant_name v.L.invariant, v.L.time, v.L.message))
    (L.violations l)

let started ~job ~budget ~t =
  [
    (t, L.Job_submitted { job; tenant = 0 });
    (t, L.Job_admitted { job; tenant = 0; queued = 1 });
    (t, L.Job_started { job; tenant = 0; budget });
  ]

let lifecycle_sequences =
  [
    ( "double submit",
      [
        (0, L.Job_submitted { job = 1; tenant = 0 });
        (5, L.Job_submitted { job = 1; tenant = 0 });
        (6, L.Job_shed { job = 1; tenant = 0; reason = "queue-full" });
      ],
      [ ("job-conservation", 5, "job 1 submitted twice (already submitted)") ] );
    ( "start without admit",
      [
        (0, L.Budget_refill { tenant = 0; amount = 10 });
        (0, L.Job_submitted { job = 2; tenant = 0 });
        (10, L.Job_started { job = 2; tenant = 0; budget = 4 });
      ],
      [
        ("job-conservation", 10, "job 2 started while submitted");
        ("job-conservation", 10, "job 2 (tenant 0) never terminated: still submitted at end of run");
      ] );
    ( "grant overdraws the balance",
      ((0, L.Budget_refill { tenant = 0; amount = 4 }) :: started ~job:3 ~budget:6 ~t:20)
      @ [ (30, L.Job_finished { job = 3; tenant = 0; state = "completed"; promotions = 3 }) ],
      [
        ( "budget-conservation",
          20,
          "tenant 0 overdrew its promotion meter: grant 6 drove the balance to -2" );
      ] );
    ( "promotions past the grant",
      ((0, L.Budget_refill { tenant = 0; amount = 10 }) :: started ~job:4 ~budget:5 ~t:10)
      @ [ (20, L.Job_finished { job = 4; tenant = 0; state = "completed"; promotions = 7 }) ],
      [ ("budget-conservation", 20, "job 4 used 7 promotions against a grant of 5") ] );
    ( "resume with the wrong episode",
      ((0, L.Budget_refill { tenant = 0; amount = 20 }) :: started ~job:5 ~budget:5 ~t:10)
      @ [
          (20, L.Job_checkpointed { job = 5; tenant = 0; at_cycle = 800 });
          (30, L.Job_resumed { job = 5; tenant = 0; episode = 2; budget = 3 });
          (40, L.Job_finished { job = 5; tenant = 0; state = "completed"; promotions = 4 });
        ],
      [ ("resume-conservation", 30, "job 5 resumed claiming episode 2 but 1 pause(s) happened") ]
    );
    ( "checkpoint never resumed",
      ((0, L.Budget_refill { tenant = 0; amount = 10 }) :: started ~job:6 ~budget:5 ~t:10)
      @ [ (20, L.Job_checkpointed { job = 6; tenant = 0; at_cycle = 500 }) ],
      [
        ( "resume-conservation",
          20,
          "job 6 (tenant 0) checkpointed (episode 1) but never resumed or finished" );
      ] );
    ( "time goes backwards",
      [
        (100, L.Job_submitted { job = 7; tenant = 0 });
        (50, L.Job_shed { job = 7; tenant = 0; reason = "queue-full" });
      ],
      [ ("clock-sanity", 50, "record time 50 went backwards (previous record at 100)") ] );
  ]

let lifecycle_invariants_trip () =
  List.iter
    (fun (name, events, want) ->
      check
        Alcotest.(list (triple string int string))
        name want (lifecycle_violations events))
    lifecycle_sequences

let suite =
  [
    Alcotest.test_case "arrival codec roundtrips" `Quick arrival_roundtrip;
    Alcotest.test_case "arrival times monotone + seeded" `Quick arrival_monotone_and_seeded;
    Alcotest.test_case "breaker trips and recovers" `Quick breaker_trip_and_recover;
    Alcotest.test_case "breaker backoff grows" `Quick breaker_backoff_grows;
    Alcotest.test_case "meter refill/grant/refund" `Quick meter_refill_grant_refund;
    Alcotest.test_case "admission zero capacity" `Quick admission_zero_capacity;
    Alcotest.test_case "admission weighted fairness" `Quick admission_weighted_fairness;
    Alcotest.test_case "admission priority in lane" `Quick admission_priority_within_lane;
    Alcotest.test_case "admission backfill" `Quick admission_backfill;
    Alcotest.test_case "zero-capacity queue sheds all" `Quick zero_capacity_sheds_everything;
    Alcotest.test_case "simultaneous arrivals ordered" `Quick simultaneous_arrivals_are_ordered;
    Alcotest.test_case "equal seeds byte-identical" `Quick equal_seeds_byte_identical;
    Alcotest.test_case "deadline cuts only its job" `Quick deadline_cuts_only_its_job;
    Alcotest.test_case "omp service honours deadlines" `Quick omp_service_honours_deadlines;
    Alcotest.test_case "budget exhaustion isolated" `Quick budget_exhaustion_is_isolated;
    Alcotest.test_case "faulty tenant quarantined" `Quick faulty_tenant_trips_breaker;
    Alcotest.test_case "promotions never exceed grant" `Quick promotions_never_exceed_grant;
    Alcotest.test_case "zero promotion budget is serial" `Quick zero_promotion_budget_runs_serial;
    Alcotest.test_case "job conservation" `Quick every_job_reaches_one_terminal_state;
    Alcotest.test_case "gen_mix is seeded" `Quick gen_mix_is_seeded;
    Alcotest.test_case "tiny mix passes" `Quick tiny_mix_passes_differentially;
    Alcotest.test_case "mix describe pinned" `Quick mix_describe_pinned;
    Alcotest.test_case "pause outputs pinned" `Quick pause_outputs_pinned;
    Alcotest.test_case "lifecycle invariants trip" `Quick lifecycle_invariants_trip;
    Alcotest.test_case "breaker ignores stale successes" `Quick breaker_stale_success_not_probe;
    Alcotest.test_case "breaker re-trips simultaneous probes" `Quick
      breaker_retrip_under_simultaneous_arrivals;
    Alcotest.test_case "pause policy completes" `Quick pause_policy_completes;
    Alcotest.test_case "cancel vs pause contrast" `Quick cancel_vs_pause_contrast;
    Alcotest.test_case "pause policy deterministic" `Quick pause_policy_deterministic;
    Alcotest.test_case "wal kill and recover" `Quick wal_kill_and_recover;
    Alcotest.test_case "wal foreign log rejected" `Quick wal_foreign_log_rejected;
  ]
