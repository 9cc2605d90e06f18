(* Tests for the recursive fork-join heartbeat extension. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* Naive Fibonacci with per-call leaf work: the canonical fork-join
   recursion with no manual granularity control. *)
let rec fib ctx n =
  if n < 2 then begin
    Hbc_core.Fork_join.advance ctx 25;
    n
  end
  else begin
    let a, b = Hbc_core.Fork_join.fork2 ctx (fun c -> fib c (n - 1)) (fun c -> fib c (n - 2)) in
    Hbc_core.Fork_join.advance ctx 12;
    a + b
  end

let rec fib_ref n = if n < 2 then n else fib_ref (n - 1) + fib_ref (n - 2)

(* Divide-and-conquer sum over an array slice. *)
let rec dc_sum ctx (data : float array) lo hi =
  if hi - lo <= 16 then begin
    let acc = ref 0.0 in
    for i = lo to hi - 1 do
      acc := !acc +. data.(i)
    done;
    Hbc_core.Fork_join.advance_bytes ctx ~compute:(9 * (hi - lo)) ~bytes:(8 * (hi - lo));
    !acc
  end
  else begin
    let mid = (lo + hi) / 2 in
    let a, b =
      Hbc_core.Fork_join.fork2 ctx
        (fun c -> dc_sum c data lo mid)
        (fun c -> dc_sum c data mid hi)
    in
    Hbc_core.Fork_join.advance ctx 8;
    a +. b
  end

let fib_correct_and_parallel () =
  let n = 21 in
  let result = ref 0 in
  let r = Hbc_core.Fork_join.run (fun ctx -> result := fib ctx n) in
  check_int "value" (fib_ref n) !result;
  check_bool "work recorded" true (r.Hbc_core.Fork_join.work_cycles > 0);
  check_bool "parallel" true (r.Hbc_core.Fork_join.makespan < r.Hbc_core.Fork_join.work_cycles);
  (* The heartbeat amortization claim: almost all forks stay sequential. *)
  let promoted = r.Hbc_core.Fork_join.metrics.Sim.Metrics.promotions in
  check_bool "forks mostly sequential" true (r.Hbc_core.Fork_join.sequential_forks > 20 * promoted);
  check_bool "but some promoted" true (promoted > 0)

let dc_sum_matches_sequential () =
  let n = 150_000 in
  let data = Array.init n (fun i -> Float.of_int (i mod 91) /. 91.0) in
  let expected = Array.fold_left ( +. ) 0.0 data in
  let result = ref 0.0 in
  let r = Hbc_core.Fork_join.run (fun ctx -> result := dc_sum ctx data 0 n) in
  Alcotest.(check (float 1e-6)) "sum" expected !result;
  check_bool "speedup > 4x" true
    (Float.of_int r.Hbc_core.Fork_join.work_cycles
     /. Float.of_int r.Hbc_core.Fork_join.makespan
    > 4.0)

let deterministic () =
  let go () =
    let result = ref 0 in
    let r = Hbc_core.Fork_join.run (fun ctx -> result := fib ctx 18) in
    (r.Hbc_core.Fork_join.makespan, !result)
  in
  let a = go () and b = go () in
  check_bool "identical" true (a = b)

let no_promotion_stays_serial () =
  let cfg = { Hbc_core.Rt_config.default with promotion = false; workers = 4 } in
  let result = ref 0 in
  let r = Hbc_core.Fork_join.run ~cfg (fun ctx -> result := fib ctx 16) in
  check_int "value" (fib_ref 16) !result;
  check_int "no tasks" 0 r.Hbc_core.Fork_join.metrics.Sim.Metrics.tasks_spawned

let worker_sweep () =
  List.iter
    (fun w ->
      let cfg = { Hbc_core.Rt_config.default with workers = w } in
      let result = ref 0.0 in
      let data = Array.init 5_000 (fun i -> Float.of_int i) in
      ignore (Hbc_core.Fork_join.run ~cfg (fun ctx -> result := dc_sum ctx data 0 5_000));
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%d workers" w)
        (Array.fold_left ( +. ) 0.0 data)
        !result)
    [ 1; 2; 16; 64 ]

let fib_values =
  QCheck.Test.make ~name:"fork-join fib equals reference for random n" ~count:12
    QCheck.(int_range 3 17)
    (fun n ->
      let result = ref 0 in
      ignore (Hbc_core.Fork_join.run (fun ctx -> result := fib ctx n));
      !result = fib_ref n)

let amortization_bound () =
  (* Heartbeat guarantee: promotions are bounded by delivered beats (each
     detected beat promotes at most one fork per worker). *)
  let r =
    Hbc_core.Fork_join.run (fun ctx ->
        ignore (dc_sum ctx (Array.make 120_000 1.0) 0 120_000))
  in
  let m = r.Hbc_core.Fork_join.metrics in
  check_bool "promotions <= detected beats" true
    (m.Sim.Metrics.promotions <= m.Sim.Metrics.heartbeats_detected);
  check_bool "tasks = promotions" true (m.Sim.Metrics.tasks_spawned = m.Sim.Metrics.promotions)

(* ------------------------- golden pin ----------------------------- *)

(* Exact counters the fork-join runtime must reproduce: any drift in the
   scheduler it runs on (steal protocol, wakeups, join help, cost
   charging) shows up here, under every heartbeat mechanism. Interrupt
   mechanisms execute no polls, so their rows count none. *)

let golden_row (label, program) (workers, mechanism, promotion) =
  let cfg = { Hbc_core.Rt_config.default with workers; mechanism; promotion } in
  let r = Hbc_core.Fork_join.run ~cfg program in
  let m = r.Hbc_core.Fork_join.metrics in
  let kinds = Test_sched.attribution m in
  Printf.sprintf
    "%s P=%d %s%s makespan=%d overhead=%d [%s] promotions=%d sequential=%d steals=%d attempts=%d slow_joins=%d polls=%d beats=%d"
    label workers
    (match mechanism with
    | Hbc_core.Rt_config.Software_polling -> "poll"
    | Hbc_core.Rt_config.Interrupt_kernel_module -> "kmod"
    | Hbc_core.Rt_config.Interrupt_ping_thread -> "ping")
    (if promotion then "" else " no-promotion")
    r.Hbc_core.Fork_join.makespan m.Sim.Metrics.overhead_cycles kinds m.Sim.Metrics.promotions
    r.Hbc_core.Fork_join.sequential_forks m.Sim.Metrics.steals m.Sim.Metrics.steal_attempts
    m.Sim.Metrics.join_slow_paths m.Sim.Metrics.polls m.Sim.Metrics.heartbeats_detected

let golden_programs =
  let data = Array.init 120_000 (fun i -> Float.of_int (i mod 91) /. 91.0) in
  [
    ("fib21", fun ctx -> ignore (fib ctx 21));
    ("dc-sum120k", fun ctx -> ignore (dc_sum ctx data 0 120_000));
  ]

let golden_configs =
  List.concat_map
    (fun workers ->
      List.map
        (fun mech -> (workers, mech, true))
        Hbc_core.Rt_config.[ Software_polling; Interrupt_kernel_module; Interrupt_ping_thread ])
    [ 1; 4; 16 ]
  @ [ (4, Hbc_core.Rt_config.Software_polling, false) ]

let golden_expected =
  [
    "fib21 P=1 poll makespan=754565 overhead=99270 [join:500,poll:55350,promotion-branch:35420,promotion:8000] promotions=25 sequential=17685 steals=0 attempts=0 slow_joins=0 polls=1107 beats=25";
    "fib21 P=1 kmod makespan=728635 overhead=73340 [interrupt:29760,join:480,promotion-branch:35420,promotion:7680] promotions=24 sequential=17686 steals=0 attempts=0 slow_joins=0 polls=0 beats=24";
    "fib21 P=1 ping makespan=743035 overhead=87740 [interrupt:44160,join:480,promotion-branch:35420,promotion:7680] promotions=24 sequential=17686 steals=0 attempts=0 slow_joins=0 polls=0 beats=24";
    "fib21 P=4 poll makespan=241547 overhead=121610 [join:2980,poll:55450,promotion-branch:35420,promotion:7360,steal:20400] promotions=23 sequential=17687 steals=9 attempts=75 slow_joins=9 polls=1109 beats=23";
    "fib21 P=4 kmod makespan=237541 overhead=96580 [interrupt:27280,join:3240,promotion-branch:35420,promotion:7040,steal:23600] promotions=22 sequential=17688 steals=10 attempts=88 slow_joins=10 polls=0 beats=22";
    "fib21 P=4 ping makespan=241349 overhead=113420 [interrupt:42320,join:3240,promotion-branch:35420,promotion:7040,steal:25400] promotions=22 sequential=17688 steals=10 attempts=97 slow_joins=10 polls=0 beats=23";
    "fib21 P=16 poll makespan=160979 overhead=186920 [join:5420,poll:55800,promotion-branch:35420,promotion:6080,steal:84200] promotions=19 sequential=17691 steals=18 attempts=367 slow_joins=18 polls=1116 beats=19";
    "fib21 P=16 kmod makespan=164324 overhead=154220 [interrupt:22320,join:5120,promotion-branch:35420,promotion:5760,steal:85600] promotions=18 sequential=17692 steals=17 attempts=377 slow_joins=17 polls=0 beats=18";
    "fib21 P=16 ping makespan=167173 overhead=173820 [interrupt:36800,join:6000,promotion-branch:35420,promotion:6400,steal:89200] promotions=20 sequential=17690 steals=20 attempts=386 slow_joins=20 polls=0 beats=20";
    "fib21 P=4 poll no-promotion makespan=746065 overhead=94370 [poll:55350,promotion-branch:35420,steal:3600] promotions=0 sequential=17710 steals=0 attempts=18 slow_joins=0 polls=1107 beats=24";
    "dc-sum120k P=1 poll makespan=1200090 overhead=54562 [join:740,poll:25600,promotion-branch:16382,promotion:11840] promotions=37 sequential=8154 steals=0 attempts=0 slow_joins=0 polls=512 beats=39";
    "dc-sum120k P=1 kmod makespan=1224770 overhead=79242 [interrupt:49600,join:780,promotion-branch:16382,promotion:12480] promotions=39 sequential=8152 steals=0 attempts=0 slow_joins=0 polls=0 beats=40";
    "dc-sum120k P=1 ping makespan=1250950 overhead=105422 [interrupt:75440,join:800,promotion-branch:16382,promotion:12800] promotions=40 sequential=8151 steals=0 attempts=0 slow_joins=0 polls=0 beats=41";
    "dc-sum120k P=4 poll makespan=353350 overhead=77092 [join:2660,poll:25650,promotion-branch:16382,promotion:11200,steal:21200] promotions=35 sequential=8156 steals=7 attempts=85 slow_joins=7 polls=513 beats=39";
    "dc-sum120k P=4 kmod makespan=370171 overhead=102182 [interrupt:49600,join:2440,promotion-branch:16382,promotion:12160,steal:21600] promotions=38 sequential=8153 steals=6 attempts=90 slow_joins=6 polls=0 beats=40";
    "dc-sum120k P=4 ping makespan=379764 overhead=124822 [interrupt:75440,join:2200,promotion-branch:16382,promotion:12800,steal:18000] promotions=40 sequential=8151 steals=5 attempts=75 slow_joins=5 polls=0 beats=41";
    "dc-sum120k P=16 poll makespan=196061 overhead=174392 [join:8500,poll:25750,promotion-branch:16382,promotion:10560,steal:113200] promotions=33 sequential=8158 steals=28 attempts=482 slow_joins=28 polls=515 beats=37";
    "dc-sum120k P=16 kmod makespan=197523 overhead=203802 [interrupt:49600,join:8820,promotion-branch:16382,promotion:11200,steal:117800] promotions=35 sequential=8156 steals=29 attempts=502 slow_joins=29 polls=0 beats=40";
    "dc-sum120k P=16 ping makespan=207364 overhead=210942 [interrupt:64400,join:8160,promotion-branch:16382,promotion:9600,steal:112400] promotions=30 sequential=8161 steals=27 attempts=481 slow_joins=27 polls=0 beats=35";
    "dc-sum120k P=4 poll no-promotion makespan=1187510 overhead=45582 [poll:25600,promotion-branch:16382,steal:3600] promotions=0 sequential=8191 steals=0 attempts=18 slow_joins=0 polls=512 beats=39";
  ]

let golden_pin () =
  Alcotest.(check (list string))
    "fork-join golden rows" golden_expected
    (List.concat_map (fun prog -> List.map (golden_row prog) golden_configs) golden_programs)

let suite =
  [
    Alcotest.test_case "fib: correct, parallel, amortized" `Quick fib_correct_and_parallel;
    Alcotest.test_case "dc-sum: matches sequential" `Quick dc_sum_matches_sequential;
    Alcotest.test_case "deterministic" `Quick deterministic;
    Alcotest.test_case "promotions off = serial" `Quick no_promotion_stays_serial;
    Alcotest.test_case "worker sweep" `Quick worker_sweep;
    QCheck_alcotest.to_alcotest fib_values;
    Alcotest.test_case "amortization bound" `Quick amortization_bound;
    Alcotest.test_case "golden: scheduler counters" `Quick golden_pin;
  ]
