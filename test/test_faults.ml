(* The fault layer's cross-cutting contract: a fault plan may change
   performance, never results. Property-style differential tests drive every
   registry workload through random seeded plans under both interrupt
   mechanisms and compare against the sequential reference; targeted tests
   pin the zero-plan bit-identity guarantee, the starvation watchdog, the
   steal backoff, stall injection, and schedule determinism. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let workers = 8

let rt_with ?(mechanism = Hbc_core.Rt_config.Software_polling) ?chunk () =
  {
    Hbc_core.Rt_config.default with
    workers;
    mechanism;
    chunk = (match chunk with Some c -> Hbc_core.Compiled.Static c | None -> Hbc_core.Compiled.Adaptive);
  }

(* Per-run knobs (fault plan, DNF cap, trace sink) travel in the request. *)
let run_entry ?plan ?max_cycles ?trace entry ~scale rt =
  let request = Hbc_core.Run_request.make ?fault_plan:plan ?max_cycles ?trace () in
  let (Ir.Program.Any p) = entry.Workloads.Registry.make scale in
  Sched_run.run ~request (Sched_run.Hbc rt) p

(* Capture only the watchdog's downgrade events. *)
let downgrade_sink () =
  Obs.Trace.Sink.stream
    ~keep:(function Obs.Trace.Mechanism_downgrade -> true | _ -> false)
    ()

let baseline entry ~scale =
  let (Ir.Program.Any p) = entry.Workloads.Registry.make scale in
  Baselines.Serial_exec.run_program p

(* Any registry workload, any random plan, either interrupt mechanism:
   finishes under a generous virtual-time cap with the sequential answer. *)
let random_plans_never_change_results () =
  let rng = Sim.Sim_rng.create 0xFA17 in
  let plans = List.init 5 (fun _ -> Sim.Fault_plan.random rng) in
  let scale = 0.04 in
  List.iter
    (fun entry ->
      let seq = baseline entry ~scale in
      let cap = Some (30 * seq.Sim.Run_result.work_cycles) in
      List.iteri
        (fun i plan ->
          List.iter
            (fun mechanism ->
              let rt = rt_with ~mechanism ~chunk:entry.Workloads.Registry.tpal_chunk () in
              let r = run_entry ~plan ?max_cycles:cap entry ~scale rt in
              let tag =
                Printf.sprintf "%s/plan%d/%s" entry.Workloads.Registry.name i
                  (match mechanism with
                  | Hbc_core.Rt_config.Interrupt_kernel_module -> "km"
                  | Hbc_core.Rt_config.Interrupt_ping_thread -> "ping"
                  | Hbc_core.Rt_config.Software_polling -> "poll")
              in
              check_bool (tag ^ " finished") false r.Sim.Run_result.dnf;
              check_bool (tag ^ " output = sequential") true
                (Sim.Run_result.fingerprints_close seq r))
            [ Hbc_core.Rt_config.Interrupt_kernel_module; Hbc_core.Rt_config.Interrupt_ping_thread ])
        plans)
    Workloads.Registry.all

(* [fault_plan = None] and [Some Fault_plan.none] are the same run, bit for
   bit: same makespan, same schedule-sensitive counters, nothing injected. *)
let zero_plan_is_bit_identical () =
  let entry = Workloads.Registry.find "spmv-powerlaw" in
  let scale = 0.05 in
  List.iter
    (fun (label, mechanism, chunk) ->
      let bare = run_entry entry ~scale (rt_with ~mechanism ?chunk ()) in
      let zero = run_entry ~plan:Sim.Fault_plan.none entry ~scale (rt_with ~mechanism ?chunk ()) in
      let mb = bare.Sim.Run_result.metrics and mz = zero.Sim.Run_result.metrics in
      check_int (label ^ " makespan") bare.Sim.Run_result.makespan zero.Sim.Run_result.makespan;
      Alcotest.(check (float 0.0))
        (label ^ " fingerprint") bare.Sim.Run_result.fingerprint zero.Sim.Run_result.fingerprint;
      check_int (label ^ " promotions") mb.Sim.Metrics.promotions mz.Sim.Metrics.promotions;
      check_int (label ^ " steals") mb.Sim.Metrics.steals mz.Sim.Metrics.steals;
      check_int (label ^ " steal attempts") mb.Sim.Metrics.steal_attempts
        mz.Sim.Metrics.steal_attempts;
      check_int (label ^ " beats generated") mb.Sim.Metrics.heartbeats_generated
        mz.Sim.Metrics.heartbeats_generated;
      check_int (label ^ " beats detected") mb.Sim.Metrics.heartbeats_detected
        mz.Sim.Metrics.heartbeats_detected;
      check_int (label ^ " beats missed") mb.Sim.Metrics.heartbeats_missed
        mz.Sim.Metrics.heartbeats_missed;
      check_int (label ^ " overhead cycles") mb.Sim.Metrics.overhead_cycles
        mz.Sim.Metrics.overhead_cycles;
      check_int (label ^ " nothing injected") 0 (Sim.Metrics.faults_injected mz);
      check_int (label ^ " no downgrades") 0 (Sim.Metrics.downgrade_count mz))
    [
      ("polling", Hbc_core.Rt_config.Software_polling, None);
      ("km", Hbc_core.Rt_config.Interrupt_kernel_module, Some 128);
      ("ping", Hbc_core.Rt_config.Interrupt_ping_thread, Some 128);
    ]

(* Near-total beat loss starves interrupt-mode workers; the watchdog must
   downgrade at least one to software polling, and the run still finishes
   with the right answer. *)
let watchdog_downgrades_starved_workers () =
  let entry = Workloads.Registry.find "spmv-powerlaw" in
  let scale = 0.05 in
  let seq = baseline entry ~scale in
  let plan = { Sim.Fault_plan.none with Sim.Fault_plan.seed = 7; beat_drop_prob = 0.9 } in
  let r =
    run_entry ~plan
      ~max_cycles:(30 * seq.Sim.Run_result.work_cycles)
      ~trace:(downgrade_sink ()) entry ~scale
      (rt_with ~mechanism:Hbc_core.Rt_config.Interrupt_kernel_module ~chunk:128 ())
  in
  check_bool "finished" false r.Sim.Run_result.dnf;
  check_bool "output = sequential" true (Sim.Run_result.fingerprints_close seq r);
  check_bool "watchdog fired" true (Sim.Run_result.downgrades r > 0);
  check_bool "degraded flag" true (Sim.Run_result.degraded r);
  (* downgrade events are (worker, time) with valid workers; the counter and
     the trace must agree, both fed by the same emission *)
  let downgrades = Obs.Trace_query.downgrades r.Sim.Run_result.trace in
  check_int "counter = trace" (Sim.Run_result.downgrades r) (List.length downgrades);
  List.iter
    (fun (w, t) ->
      check_bool "worker in range" true (w >= 0 && w < workers);
      check_bool "time positive" true (t > 0))
    downgrades

(* Forced steal-failure bursts engage the bounded exponential backoff
   instead of the old immediate park: failures are counted and backoff
   cycles attributed, with the result unchanged. *)
let steal_faults_engage_backoff () =
  let entry = Workloads.Registry.find "mandelbrot" in
  let scale = 0.05 in
  let seq = baseline entry ~scale in
  let plan =
    {
      Sim.Fault_plan.none with
      Sim.Fault_plan.seed = 11;
      steal_fail_prob = 0.5;
      steal_fail_burst = 3;
    }
  in
  let r =
    run_entry ~plan ~max_cycles:(30 * seq.Sim.Run_result.work_cycles) entry ~scale (rt_with ())
  in
  check_bool "finished" false r.Sim.Run_result.dnf;
  check_bool "output = sequential" true (Sim.Run_result.fingerprints_close seq r);
  check_bool "steal failures injected" true (r.Sim.Run_result.metrics.Sim.Metrics.faults_steals_failed > 0);
  check_bool "backoff cycles attributed" true
    (Sim.Metrics.overhead_of r.Sim.Run_result.metrics Sim.Metrics.Idle_backoff > 0)

(* Injected stalls surface as attributed overhead and slow the run down
   without perturbing the output. *)
let stalls_are_attributed () =
  let entry = Workloads.Registry.find "plus-reduce-array" in
  let scale = 0.05 in
  let seq = baseline entry ~scale in
  let plan =
    { Sim.Fault_plan.none with Sim.Fault_plan.seed = 3; stall_prob = 0.2; stall_cycles = 5_000 }
  in
  let r =
    run_entry ~plan ~max_cycles:(30 * seq.Sim.Run_result.work_cycles) entry ~scale (rt_with ())
  in
  check_bool "finished" false r.Sim.Run_result.dnf;
  check_bool "output = sequential" true (Sim.Run_result.fingerprints_close seq r);
  let m = r.Sim.Run_result.metrics in
  check_bool "stalls injected" true (m.Sim.Metrics.faults_stalls > 0);
  check_bool "stall cycles booked" true
    (m.Sim.Metrics.faults_stall_cycles >= m.Sim.Metrics.faults_stalls);
  check_bool "stall overhead attributed" true
    (Sim.Metrics.overhead_of m Sim.Metrics.Fault_stall > 0)

(* Identical plans reproduce identical fault schedules: the whole run —
   makespan, injections, downgrades — is a pure function of the config. *)
let fault_schedules_are_deterministic () =
  let entry = Workloads.Registry.find "spmv-powerlaw" in
  let scale = 0.05 in
  let plan =
    {
      Sim.Fault_plan.none with
      Sim.Fault_plan.seed = 21;
      beat_drop_prob = 0.4;
      beat_jitter = 2_000;
      steal_fail_prob = 0.2;
      steal_fail_burst = 2;
      stall_prob = 0.01;
      stall_cycles = 3_000;
    }
  in
  let go () =
    run_entry ~plan ~trace:(downgrade_sink ()) entry ~scale
      (rt_with ~mechanism:Hbc_core.Rt_config.Interrupt_ping_thread ~chunk:128 ())
  in
  let a = go () and b = go () in
  check_int "same makespan" a.Sim.Run_result.makespan b.Sim.Run_result.makespan;
  check_int "same injections"
    (Sim.Run_result.faults_injected a)
    (Sim.Run_result.faults_injected b);
  Alcotest.(check (list (pair int int)))
    "same downgrade schedule"
    (Obs.Trace_query.downgrades a.Sim.Run_result.trace)
    (Obs.Trace_query.downgrades b.Sim.Run_result.trace)

let suite =
  [
    Alcotest.test_case "random plans never change results" `Slow random_plans_never_change_results;
    Alcotest.test_case "zero plan is bit-identical" `Quick zero_plan_is_bit_identical;
    Alcotest.test_case "watchdog downgrades starved workers" `Quick watchdog_downgrades_starved_workers;
    Alcotest.test_case "steal faults engage backoff" `Quick steal_faults_engage_backoff;
    Alcotest.test_case "stalls are attributed" `Quick stalls_are_attributed;
    Alcotest.test_case "fault schedules deterministic" `Quick fault_schedules_are_deterministic;
  ]
