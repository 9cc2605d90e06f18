(* Tests for the backend-agnostic scheduler core (lib/sched) and its two
   instantiations: policy units, leftover-walk units, Ws_deque conformance
   against the simulator's sequential Chase–Lev model, sim determinism
   (pinning the functor extraction), sim-vs-domains fingerprint parity on
   the differential workloads, sanitizer-clean native traces, and the
   Sched_run facade's dispatch. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let qt = QCheck_alcotest.to_alcotest

(* ---------------------------- policy ------------------------------ *)

let policy_owned_suffix () =
  Alcotest.(check (list int)) "no forbidden" [ 0; 1; 2 ] (Sched.Policy.owned_suffix ~forbidden:(-1) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "drops through forbidden" [ 2 ] (Sched.Policy.owned_suffix ~forbidden:1 [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "forbidden leaf" [] (Sched.Policy.owned_suffix ~forbidden:2 [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "forbidden absent" [] (Sched.Policy.owned_suffix ~forbidden:7 [ 0; 1; 2 ])

let policy_choose_target () =
  let splittable o = o = 1 || o = 2 in
  Alcotest.(check (option int)) "outer first" (Some 1)
    (Sched.Policy.choose_target ~policy:Sched.Policy.Outer_loop_first ~splittable [ 0; 1; 2 ]);
  Alcotest.(check (option int)) "inner first" (Some 2)
    (Sched.Policy.choose_target ~policy:Sched.Policy.Innermost_first ~splittable [ 0; 1; 2 ]);
  Alcotest.(check (option int)) "none splittable" None
    (Sched.Policy.choose_target ~policy:Sched.Policy.Outer_loop_first
       ~splittable:(fun _ -> false)
       [ 0; 1; 2 ]);
  check_bool "invert is an involution" true
    (Sched.Policy.invert (Sched.Policy.invert Sched.Policy.Outer_loop_first)
    = Sched.Policy.Outer_loop_first)

let policy_split_point () =
  (* Upper-rounded midpoint: the lower half is never larger. *)
  check_int "even" 15 (Sched.Policy.split_point ~lo:10 ~hi:20);
  check_int "odd rounds up" 16 (Sched.Policy.split_point ~lo:10 ~hi:21);
  check_int "two iterations split 1/1" 11 (Sched.Policy.split_point ~lo:10 ~hi:12)

let policy_backend_kind () =
  check_bool "sim round-trips" true
    (Sched.Policy.backend_kind_of_string (Sched.Policy.backend_kind_to_string Sched.Policy.Sim)
    = Ok Sched.Policy.Sim);
  check_bool "domains round-trips" true
    (Sched.Policy.backend_kind_of_string (Sched.Policy.backend_kind_to_string Sched.Policy.Domains)
    = Ok Sched.Policy.Domains);
  check_bool "junk rejected" true
    (match Sched.Policy.backend_kind_of_string "cuda" with Error _ -> true | Ok _ -> false)

(* ------------------------- leftover walk -------------------------- *)

let walk_runs_in_order () =
  let log = ref [] in
  Sched.Leftover_walk.run
    ~steps:[| `A; `B; `C |]
    ~is_call:(fun _ -> None)
    ~exec:(fun s ->
      log := s :: !log;
      Sched.Leftover_walk.Next);
  check_bool "all steps in order" true (List.rev !log = [ `A; `B; `C ])

let walk_skip_past () =
  (* A promotion of ancestor 1 inside step 0 skips everything up to and
     including 1's own Call_slice. *)
  let log = ref [] in
  let steps = [| `Call 2; `Iv; `Call 1; `Tail; `Call 0 |] in
  Sched.Leftover_walk.run ~steps
    ~is_call:(fun s -> match s with `Call o -> Some o | _ -> None)
    ~exec:(fun s ->
      log := s :: !log;
      match s with `Call 2 -> Sched.Leftover_walk.Skip_past 1 | _ -> Sched.Leftover_walk.Next);
  check_bool "resumed after Call 1" true (List.rev !log = [ `Call 2; `Tail; `Call 0 ])

let walk_missing_call () =
  check_bool "missing call raises" true
    (try
       Sched.Leftover_walk.run ~steps:[| `X |]
         ~is_call:(fun _ -> None)
         ~exec:(fun _ -> Sched.Leftover_walk.Skip_past 3);
       false
     with Sched.Leftover_walk.Missing_call 3 -> true)

(* --------------------- Ws_deque conformance ----------------------- *)

(* The native Chase–Lev deque against the simulator's sequential model
   (which is also the sanitizer's shadow-replay structure): any
   single-threaded op sequence must produce identical results. The
   concurrent side is covered by test_parallel's exactly-once tests and
   by the sanitizer's shadow replay of linearized native traces below. *)
let ws_deque_matches_model =
  QCheck.Test.make ~name:"Ws_deque = Sim.Deque on sequential op sequences" ~count:500
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let d = Hb_parallel.Ws_deque.create () in
      let m = Sim.Deque.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr next;
              Hb_parallel.Ws_deque.push d !next;
              Sim.Deque.push_bottom m !next;
              Hb_parallel.Ws_deque.size d = Sim.Deque.length m
          | 1 -> Hb_parallel.Ws_deque.pop d = Sim.Deque.pop_bottom m
          | _ -> Hb_parallel.Ws_deque.steal d = Sim.Deque.steal m)
        ops)

(* ------------------ sim determinism (extraction pin) -------------- *)

(* Pins the functor extraction: the sim instantiation of the shared core
   is a deterministic function of (config, program) — two runs agree to
   the byte on result and trace. Any backend leakage into the policy
   core (real time, domain identity) would break this first. *)
let sim_runs_byte_identical () =
  let p = Test_runtime.make_irregular ~rows:120 ~max_size:10 ~seed:42 in
  let cfg = { Hbc_core.Rt_config.default with workers = 4 } in
  let run () =
    let sink = Obs.Trace.Sink.stream () in
    let request = Hbc_core.Run_request.make ~trace:sink () in
    Sched_run.run ~request (Sched_run.Hbc cfg) p
  in
  let a = run () and b = run () in
  check_int "makespan" a.Sim.Run_result.makespan b.Sim.Run_result.makespan;
  check_bool "fingerprint" true
    (a.Sim.Run_result.fingerprint = b.Sim.Run_result.fingerprint);
  check_int "promotions" a.Sim.Run_result.metrics.Sim.Metrics.promotions
    b.Sim.Run_result.metrics.Sim.Metrics.promotions;
  check_bool "traces identical" true (a.Sim.Run_result.trace = b.Sim.Run_result.trace)

(* ---------------------- golden interpreter pin --------------------- *)

(* Exact constants the compiled-nest interpreter must reproduce on both
   backends. Unlike the rerun check above, these catch any drift in cost
   charging, emission order or promotion behaviour between versions. The
   domains rows run one worker under a beat every 16 polls, the only
   native schedule that is reproducible. *)

let trace_digest (r : Sim.Run_result.t) =
  Digest.to_hex (Digest.string (Obs.Json.to_string (Obs.Trace.records_to_json r.Sim.Run_result.trace)))

let count_events (r : Sim.Run_result.t) pred =
  List.length (List.filter (fun (x : Obs.Trace.record) -> pred x.Obs.Trace.event) r.Sim.Run_result.trace)

let golden_scale = 0.02

let golden_sim_row (label, name, chunk) workers =
  let (Ir.Program.Any p) = (Workloads.Registry.find name).Workloads.Registry.make golden_scale in
  let cfg = { Hbc_core.Rt_config.default with workers; chunk } in
  let request = Hbc_core.Run_request.make ~trace:(Obs.Trace.Sink.stream ()) () in
  let r = Sched_run.run ~request (Sched_run.Hbc cfg) p in
  let m = r.Sim.Run_result.metrics in
  Printf.sprintf "%s P=%d makespan=%d overhead=%d promotions=%d steals=%d trace=%s" label workers
    r.Sim.Run_result.makespan m.Sim.Metrics.overhead_cycles m.Sim.Metrics.promotions
    m.Sim.Metrics.steals (trace_digest r)

let golden_sim_cases =
  [
    ("spmv-powerlaw", "spmv-powerlaw", Hbc_core.Compiled.Adaptive);
    ("floyd-warshall", "floyd-warshall", Hbc_core.Compiled.Adaptive);
    ("kmeans", "kmeans", Hbc_core.Compiled.Adaptive);
    ("spmv-powerlaw/no-chunking", "spmv-powerlaw", Hbc_core.Compiled.No_chunking);
    (* six nests, each re-executed every CG iteration: pins the adaptive
       chunking state carried across [exec_nest] calls of the same nest *)
    ("cg", "cg", Hbc_core.Compiled.Adaptive);
  ]

let golden_sim_expected =
  [
    "spmv-powerlaw P=1 makespan=691188 overhead=135848 promotions=20 steals=0 trace=e87146687badb6020e580f0695dea82e";
    "spmv-powerlaw P=4 makespan=264582 overhead=315951 promotions=25 steals=13 trace=24eba64a5c1c5856f29ac45a2a732eef";
    "spmv-powerlaw P=16 makespan=282907 overhead=1312456 promotions=67 steals=92 trace=977b9ea82ebd320bf2b88006226312cc";
    "floyd-warshall P=1 makespan=11794452 overhead=541652 promotions=386 steals=0 trace=867edcf188249729f5cf3b6d953bc2f4";
    "floyd-warshall P=4 makespan=6313566 overhead=2090216 promotions=324 steals=320 trace=57d83c7a3526711963be1a8f715885c6";
    "floyd-warshall P=16 makespan=6163854 overhead=4243088 promotions=367 steals=441 trace=c2d68509a3f4aad82e796ea96e074ed5";
    "kmeans P=1 makespan=922260 overhead=108276 promotions=30 steals=0 trace=22c507e89699bb4dd62bf84745d39dad";
    "kmeans P=4 makespan=471877 overhead=379868 promotions=31 steals=20 trace=020e46fa7b9bb38318e0bcd5aa3811cb";
    "kmeans P=16 makespan=480281 overhead=848352 promotions=33 steals=32 trace=5a33d4d09364ed8580f23997790abbdf";
    "spmv-powerlaw/no-chunking P=1 makespan=3173908 overhead=2618568 promotions=105 steals=0 trace=cf6701063d6887edf58a85db88aaada5";
    "spmv-powerlaw/no-chunking P=4 makespan=853496 overhead=2688976 promotions=108 steals=26 trace=7892a0591d87b85439b708dc6a52c338";
    "spmv-powerlaw/no-chunking P=16 makespan=320327 overhead=2867533 promotions=109 steals=81 trace=5d5fc17eeb0292160d1a224061a842fd";
    "cg P=1 makespan=1862072 overhead=503912 promotions=62 steals=0 trace=c302b9f50e9f22a41b4bd8a08d84c92d";
    "cg P=4 makespan=1207035 overhead=1367255 promotions=86 steals=62 trace=65fcb9a07f63a842485e681db4c980f6";
    "cg P=16 makespan=1308575 overhead=2809202 promotions=121 steals=136 trace=0a7dee5820f5c7c1fb4c51177b313b94";
  ]

let golden_sim_pin () =
  let got =
    List.concat_map
      (fun case -> List.map (golden_sim_row case) [ 1; 4; 16 ])
      golden_sim_cases
  in
  Alcotest.(check (list string)) "simulator golden rows" golden_sim_expected got

(* Exact per-kind overhead attribution, sorted by kind name: any charge
   site that moves cycles between kinds, or stops charging them, shows
   up here. The rows cover every HBC mechanism, an OpenMP run whose
   memory traffic queues on the bus, and a fault plan that stalls workers
   and makes dry steal rounds back off. Fork-join attribution is pinned
   by test_fork_join's golden rows. *)
let attribution (m : Sim.Metrics.t) =
  List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) (Sim.Metrics.attribution m)
  |> List.sort compare |> String.concat ","

let golden_attribution_row (label, engine, fault_plan) =
  let (Ir.Program.Any p) = (Workloads.Registry.find "spmv-powerlaw").Workloads.Registry.make golden_scale in
  let request = Hbc_core.Run_request.make ?fault_plan () in
  let r = Sched_run.run ~request engine p in
  Printf.sprintf "%s makespan=%d [%s]" label r.Sim.Run_result.makespan (attribution r.Sim.Run_result.metrics)

let golden_attribution_cases =
  let hbc mechanism = Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 16; mechanism } in
  [
    ("poll", hbc Hbc_core.Rt_config.Software_polling, None);
    ("kmod", hbc Hbc_core.Rt_config.Interrupt_kernel_module, None);
    ("ping", hbc Hbc_core.Rt_config.Interrupt_ping_thread, None);
    ("omp-dynamic", Sched_run.Openmp (Baselines.Openmp.dynamic ~workers:64 ()), None);
    ( "poll+faults",
      hbc Hbc_core.Rt_config.Software_polling,
      Some
        {
          Sim.Fault_plan.none with
          Sim.Fault_plan.seed = 5;
          steal_fail_prob = 0.5;
          steal_fail_burst = 3;
          stall_prob = 0.05;
          stall_cycles = 2_000;
        } );
  ]

let golden_attribution_expected =
  [
    "poll makespan=282907 [chunk-transfer:145090,chunking:29018,closure:15498,join:29400,lst-store:9604,membus:542,outline-call:10332,poll:700150,promotion-branch:32702,promotion:23740,reduction:180,steal:316200]";
    "kmod makespan=234364 [chunk-transfer:279380,chunking:55876,closure:15144,interrupt:54560,join:17580,lst-store:9604,membus:8579,outline-call:10096,promotion-branch:60184,promotion:15660,reduction:140,steal:216400]";
    "ping makespan=205775 [chunk-transfer:297400,chunking:59480,closure:15090,interrupt:75440,join:18240,lst-store:9604,membus:5137,outline-call:10060,promotion-branch:63878,promotion:14580,reduction:80,steal:229800]";
    "omp-dynamic makespan=52855 [membus:762968,omp-contention:584604,omp-dispatch:432000,omp-fork:9000,omp-join:7000,omp-setup:7680]";
    "poll+faults makespan=326897 [chunk-transfer:122990,chunking:24598,closure:15150,fault-stall:881,idle-backoff:2200818,join:14800,lst-store:9604,membus:778,outline-call:10100,poll:594250,promotion-branch:28494,promotion:15980,reduction:80,steal:694800]";
  ]

let golden_attribution_pin () =
  Alcotest.(check (list string))
    "overhead attribution rows" golden_attribution_expected
    (List.map golden_attribution_row golden_attribution_cases)

let golden_native_row name =
  let (Ir.Program.Any p) = (Workloads.Registry.find name).Workloads.Registry.make golden_scale in
  let cfg = { Hbc_core.Rt_config.default with workers = 1 } in
  let request =
    Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ~trace:(Obs.Trace.Sink.stream ()) ()
  in
  let r =
    Sched_run.run ~request ~beat:(Hb_parallel.Native_run.Every_polls 16) (Sched_run.Hbc cfg) p
  in
  Printf.sprintf "%s promotions=%d work=%d leftovers=%d chunk_decisions=%d" name
    r.Sim.Run_result.metrics.Sim.Metrics.promotions r.Sim.Run_result.work_cycles
    (count_events r (function Obs.Trace.Leftover_run -> true | _ -> false))
    (count_events r (function Obs.Trace.Chunk_decision _ -> true | _ -> false))

let golden_native_expected =
  [
    "spmv-powerlaw promotions=20 work=555340 leftovers=13 chunk_decisions=10";
    "floyd-warshall promotions=28 work=11252800 leftovers=23 chunk_decisions=14";
    "kmeans promotions=30 work=813984 leftovers=0 chunk_decisions=14";
    "cg promotions=96 work=1358160 leftovers=18 chunk_decisions=49";
  ]

let golden_native_pin () =
  Alcotest.(check (list string))
    "domains golden rows (P=1, Every_polls 16)" golden_native_expected
    (List.map golden_native_row [ "spmv-powerlaw"; "floyd-warshall"; "kmeans"; "cg" ])

(* ---------------------- golden run-envelope pin -------------------- *)

(* How each simulated front end ends a run under every cap a request can
   carry: the DNF cap, the per-job deadline, both (the earlier fires), the
   cycle budget and an external guard. The uncapped row gives the makespan
   every cap sits below. Both front ends run inside the one
   [Sim_backend.supervise] envelope, so OpenMP honours the deadline too. *)

let envelope_requests =
  let mk = Hbc_core.Run_request.make in
  [
    ("uncapped", fun () -> mk ());
    ("max_cycles", fun () -> mk ~max_cycles:50_000 ());
    ("deadline", fun () -> mk ~deadline:30_000 ());
    ("deadline<max_cycles", fun () -> mk ~max_cycles:50_000 ~deadline:30_000 ());
    ("max_cycles<deadline", fun () -> mk ~max_cycles:20_000 ~deadline:30_000 ());
    ("cycle_budget", fun () -> mk ~cycle_budget:40_000 ());
    ("guard", fun () -> mk ~guard:(fun () -> Some "pin-guard") ());
  ]

let envelope_engines =
  [
    ("hbc", Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 4 });
    ("omp-dynamic", Sched_run.Openmp (Baselines.Openmp.dynamic ~workers:4 ()));
  ]

let golden_envelope_row (Ir.Program.Any p) (engine_label, engine) (label, request) =
  let r = Sched_run.run ~request:(request ()) engine p in
  Printf.sprintf "%s %s termination=%s makespan=%d" engine_label label
    (Sim.Run_result.termination_to_string r.Sim.Run_result.termination)
    r.Sim.Run_result.makespan

let golden_envelope_expected =
  [
    "hbc uncapped termination=finished makespan=264582";
    "hbc max_cycles termination=dnf makespan=50176";
    "hbc deadline termination=dnf makespan=30028";
    "hbc deadline<max_cycles termination=dnf makespan=30028";
    "hbc max_cycles<deadline termination=dnf makespan=20053";
    "hbc cycle_budget termination=budget-exceeded(40000 at 40003) makespan=40022";
    "hbc guard termination=guard-aborted(pin-guard) makespan=76629";
    "omp-dynamic uncapped termination=finished makespan=263260";
    "omp-dynamic max_cycles termination=dnf makespan=51238";
    "omp-dynamic deadline termination=dnf makespan=34124";
    "omp-dynamic deadline<max_cycles termination=dnf makespan=34124";
    "omp-dynamic max_cycles<deadline termination=dnf makespan=23317";
    "omp-dynamic cycle_budget termination=budget-exceeded(40000 at 42942) makespan=43061";
    "omp-dynamic guard termination=guard-aborted(pin-guard) makespan=234733";
  ]

let golden_envelope_pin () =
  let p = (Workloads.Registry.find "spmv-powerlaw").Workloads.Registry.make golden_scale in
  Alcotest.(check (list string))
    "run envelope rows (spmv-powerlaw, P=4)" golden_envelope_expected
    (List.concat_map
       (fun engine -> List.map (golden_envelope_row p engine) envelope_requests)
       envelope_engines)

(* ------------------- sim vs domains parity ------------------------ *)

let native_request () = Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ()

let parity_on workers (Ir.Program.Any p) =
  let seq = Baselines.Serial_exec.run_program p in
  let cfg = { Hbc_core.Rt_config.default with workers } in
  let sim = Sched_run.run (Sched_run.Hbc cfg) p in
  let native =
    Sched_run.run ~request:(native_request ()) ~beat:(Hb_parallel.Native_run.Wall_us 50.0)
      (Sched_run.Hbc cfg) p
  in
  check_bool
    (Printf.sprintf "sim matches seq at P=%d" workers)
    true
    (Sim.Run_result.fingerprints_close seq sim);
  check_bool
    (Printf.sprintf "domains matches seq at P=%d" workers)
    true
    (Sim.Run_result.fingerprints_close seq native);
  check_bool
    (Printf.sprintf "domains matches sim at P=%d" workers)
    true
    (Sim.Run_result.fingerprints_close sim native);
  check_int
    (Printf.sprintf "native body work = serial work at P=%d" workers)
    seq.Sim.Run_result.work_cycles native.Sim.Run_result.work_cycles

let parity_irregular () =
  List.iter
    (fun workers ->
      parity_on workers (Ir.Program.Any (Test_runtime.make_irregular ~rows:400 ~max_size:12 ~seed:7)))
    [ 1; 2; 4 ]

let parity_registry () =
  List.iter
    (fun name ->
      let entry = Workloads.Registry.find name in
      List.iter
        (fun workers -> parity_on workers (entry.Workloads.Registry.make 0.05))
        [ 1; 2; 4 ])
    [ "plus-reduce-array"; "spmv-powerlaw" ]

(* ------------------ sanitizer on native traces -------------------- *)

(* A traced domains run must satisfy the same invariant set as a simulated
   one: work conservation (every iteration exactly once), shadow Chase–Lev
   deque replay, promotion-policy replay, chunk-rule replay, and clock
   sanity over the linearized stream. *)
let native_trace_sanitizer_clean () =
  let p = Test_runtime.make_irregular ~rows:400 ~max_size:12 ~seed:11 in
  let cfg = { Hbc_core.Rt_config.default with workers = 2 } in
  let checker = Sanitizer.Checker.create (Sanitizer.Checker.config_of_rt cfg) in
  let request =
    Hbc_core.Run_request.make ~backend:Sched.Policy.Domains
      ~trace:(Sanitizer.Checker.sink checker) ~sanitize:true ()
  in
  (* A deterministic poll-count beat fires densely enough that the run
     promotes even on a loaded single-core machine. *)
  let r =
    Sched_run.run ~request ~beat:(Hb_parallel.Native_run.Every_polls 16) (Sched_run.Hbc cfg) p
  in
  Sanitizer.Checker.finish checker;
  check_bool
    (Printf.sprintf "sanitizer clean: %s" (Sanitizer.Checker.summary checker))
    true (Sanitizer.Checker.ok checker);
  check_bool "native run promoted" true (r.Sim.Run_result.metrics.Sim.Metrics.promotions > 0);
  let seq = Baselines.Serial_exec.run_program p in
  check_bool "traced native run still correct" true (Sim.Run_result.fingerprints_close seq r)

(* --------------------------- facade ------------------------------- *)

let facade_dispatch () =
  let p = Test_runtime.make_irregular ~rows:60 ~max_size:8 ~seed:3 in
  let seq = Sched_run.run Sched_run.Serial p in
  let sim_hbc = Sched_run.run Sched_run.hbc p in
  check_bool "facade serial = facade hbc" true (Sim.Run_result.fingerprints_close seq sim_hbc);
  let tpal = Sched_run.run (Sched_run.tpal ~chunk:16) p in
  check_bool "facade tpal" true (Sim.Run_result.fingerprints_close seq tpal);
  check_bool "omp on domains rejected" true
    (try
       ignore
         (Sched_run.run
            ~request:(Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ())
            (Sched_run.Openmp (Baselines.Openmp.dynamic ()))
            p);
       false
     with Invalid_argument _ -> true);
  (* Portable fault kinds now run natively; only simulator-only kinds
     (cycle-granular jitter, cycle-counted stalls) are refused. *)
  let chaos =
    let request =
      Hbc_core.Run_request.make ~backend:Sched.Policy.Domains
        ~fault_plan:{ Sim.Fault_plan.none with seed = 1; beat_drop_prob = 0.5 } ()
    in
    Sched_run.run ~request ~beat:(Hb_parallel.Native_run.Every_polls 32) Sched_run.hbc p
  in
  check_bool "portable faults run on domains" true (Sim.Run_result.fingerprints_close seq chaos);
  check_bool "simulator-only faults on domains rejected" true
    (try
       let request =
         Hbc_core.Run_request.make ~backend:Sched.Policy.Domains
           ~fault_plan:{ Sim.Fault_plan.none with seed = 1; beat_drop_prob = 0.5; beat_jitter = 100 }
           ()
       in
       ignore (Sched_run.run ~request Sched_run.hbc p);
       false
     with Invalid_argument _ -> true)

(* Every executor name resolves, and [with_machine] reaches every engine it
   names: a run uses the workers it is given (one for the sequential
   reference), and a different seed changes the journal signature. *)
let vocabulary_applies_machine () =
  check_bool "unknown name" true (Sched_run.of_name ~chunk:8 "no-such-executor" = None);
  List.iter
    (fun name ->
      match Sched_run.of_name ~chunk:8 name with
      | None -> Alcotest.failf "%s does not resolve" name
      | Some (_, engine) ->
          let on seed = Sched_run.with_machine ~workers:3 ~seed engine in
          Alcotest.(check int)
            (name ^ " workers")
            (if engine = Sched_run.Serial then 1 else 3)
            (Sched_run.workers (on 1));
          check_bool (name ^ " seed in signature") (engine <> Sched_run.Serial)
            (Sched_run.signature (on 1) <> Sched_run.signature (on 2)))
    Sched_run.names

let request_signature_keyed_by_backend () =
  let sim = Hbc_core.Run_request.make () in
  let dom = Hbc_core.Run_request.make ~backend:Sched.Policy.Domains () in
  check_bool "backends never alias in the journal" true
    (Hbc_core.Run_request.signature sim <> Hbc_core.Run_request.signature dom)

let suite =
  [
    Alcotest.test_case "policy: owned suffix" `Quick policy_owned_suffix;
    Alcotest.test_case "policy: choose target" `Quick policy_choose_target;
    Alcotest.test_case "policy: split point" `Quick policy_split_point;
    Alcotest.test_case "policy: backend kind strings" `Quick policy_backend_kind;
    Alcotest.test_case "leftover walk: in order" `Quick walk_runs_in_order;
    Alcotest.test_case "leftover walk: skip past" `Quick walk_skip_past;
    Alcotest.test_case "leftover walk: missing call" `Quick walk_missing_call;
    qt ws_deque_matches_model;
    Alcotest.test_case "sim: byte-identical reruns" `Quick sim_runs_byte_identical;
    Alcotest.test_case "golden: simulator interpreter constants" `Quick golden_sim_pin;
    Alcotest.test_case "golden: overhead attribution" `Quick golden_attribution_pin;
    Alcotest.test_case "golden: domains interpreter constants" `Quick golden_native_pin;
    Alcotest.test_case "golden: run envelope caps" `Quick golden_envelope_pin;
    Alcotest.test_case "parity: irregular nest, P=1,2,4" `Slow parity_irregular;
    Alcotest.test_case "parity: registry workloads, P=1,2,4" `Slow parity_registry;
    Alcotest.test_case "native trace: sanitizer clean" `Slow native_trace_sanitizer_clean;
    Alcotest.test_case "facade: dispatch and guards" `Quick facade_dispatch;
    Alcotest.test_case "request: backend in signature" `Quick request_signature_keyed_by_backend;
    Alcotest.test_case "facade: vocabulary applies the machine" `Quick vocabulary_applies_machine;
  ]
