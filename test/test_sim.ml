(* Tests for the simulation substrate: RNG, deque, engine, membus, metrics. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------------ rng ------------------------------- *)

let rng_deterministic () =
  let a = Sim.Sim_rng.create 7 and b = Sim.Sim_rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Sim_rng.next_int64 a) (Sim.Sim_rng.next_int64 b)
  done

let rng_int_bounds () =
  let r = Sim.Sim_rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Sim.Sim_rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let rng_float_bounds () =
  let r = Sim.Sim_rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Sim.Sim_rng.float r 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let rng_int_mean () =
  let r = Sim.Sim_rng.create 5 in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Sim.Sim_rng.int r 100
  done;
  let mean = Float.of_int !sum /. Float.of_int n in
  check_bool "mean near 49.5" true (Float.abs (mean -. 49.5) < 1.5)

let rng_split_independent () =
  let r = Sim.Sim_rng.create 9 in
  let c1 = Sim.Sim_rng.split r in
  let c2 = Sim.Sim_rng.split r in
  check_bool "children differ" true (Sim.Sim_rng.next_int64 c1 <> Sim.Sim_rng.next_int64 c2)

let rng_zipf_bounds =
  QCheck.Test.make ~name:"zipf stays in [1, n]" ~count:500
    QCheck.(pair (int_range 1 1000) (int_range 0 10_000))
    (fun (n, seed) ->
      let r = Sim.Sim_rng.create seed in
      let v = Sim.Sim_rng.zipf r ~alpha:1.3 ~n in
      v >= 1 && v <= n)

let rng_zipf_skew () =
  (* A Zipf sample is heavily concentrated on small values. *)
  let r = Sim.Sim_rng.create 11 in
  let small = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Sim.Sim_rng.zipf r ~alpha:1.5 ~n:1000 <= 3 then incr small
  done;
  check_bool "most samples tiny" true (!small > n / 2)

(* ----------------------------- deque ------------------------------ *)

let deque_lifo_owner () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_bottom d 1;
  Sim.Deque.push_bottom d 2;
  Sim.Deque.push_bottom d 3;
  Alcotest.(check (option int)) "newest first" (Some 3) (Sim.Deque.pop_bottom d);
  Alcotest.(check (option int)) "then 2" (Some 2) (Sim.Deque.pop_bottom d);
  check_int "length" 1 (Sim.Deque.length d)

let deque_fifo_thief () =
  let d = Sim.Deque.create () in
  List.iter (Sim.Deque.push_bottom d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "oldest first" (Some 1) (Sim.Deque.steal d);
  Alcotest.(check (option int)) "owner still newest" (Some 3) (Sim.Deque.pop_bottom d)

let deque_growth () =
  let d = Sim.Deque.create () in
  for i = 0 to 999 do
    Sim.Deque.push_bottom d i
  done;
  check_int "all kept" 1000 (Sim.Deque.length d);
  Alcotest.(check (list int)) "order top..bottom" (List.init 1000 Fun.id) (Sim.Deque.to_list d)

(* Model-based qcheck: a deque behaves like a functional double-ended list. *)
let deque_model =
  QCheck.Test.make ~name:"deque matches list model" ~count:300
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let d = Sim.Deque.create () in
      let model = ref [] in
      (* model: list with head = top (oldest), tail end = bottom (newest) *)
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr counter;
              Sim.Deque.push_bottom d !counter;
              model := !model @ [ !counter ];
              true
          | 1 -> (
              let got = Sim.Deque.pop_bottom d in
              match List.rev !model with
              | [] -> got = None
              | x :: rest ->
                  model := List.rev rest;
                  got = Some x)
          | _ -> (
              let got = Sim.Deque.steal d in
              match !model with
              | [] -> got = None
              | x :: rest ->
                  model := rest;
                  got = Some x))
        ops)

(* ----------------------------- engine ----------------------------- *)

let engine_virtual_time_order () =
  let e = Sim.Engine.create ~num_workers:2 () in
  let log = ref [] in
  Sim.Engine.run e (fun w ->
      if w = 0 then begin
        Sim.Engine.advance e 10;
        log := (0, Sim.Engine.now e) :: !log;
        Sim.Engine.advance e 100;
        log := (0, Sim.Engine.now e) :: !log
      end
      else begin
        Sim.Engine.advance e 50;
        log := (1, Sim.Engine.now e) :: !log
      end);
  let times = List.rev_map snd !log in
  Alcotest.(check (list int)) "events in time order" [ 10; 50; 110 ] times

let engine_park_unpark () =
  let e = Sim.Engine.create ~num_workers:2 () in
  let woke_at = ref (-1) in
  Sim.Engine.run e (fun w ->
      if w = 0 then begin
        Sim.Engine.advance e 500;
        Sim.Engine.unpark e 1
      end
      else begin
        Sim.Engine.park e;
        woke_at := Sim.Engine.now e
      end);
  check_int "woken at waker's time" 500 !woke_at

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let engine_deadlock_detected () =
  (* The message now carries a per-worker snapshot (clock, park state, plus
     any diagnostics the executor registers); pin its pieces rather than the
     exact string. *)
  let e = Sim.Engine.create ~num_workers:1 () in
  Sim.Engine.set_diagnostics e (fun w -> Printf.sprintf " extra=%d" w);
  let msg =
    try
      Sim.Engine.run e (fun _ -> Sim.Engine.park e);
      Alcotest.fail "expected Deadlock"
    with Sim.Engine.Deadlock m -> m
  in
  let has sub = Alcotest.(check bool) (Printf.sprintf "mentions %S" sub) true (contains ~sub msg) in
  has "live workers parked and event queue empty";
  has "worker 0: clock=0";
  has "parked";
  has "extra=0"

let engine_callbacks_and_cancel () =
  let e = Sim.Engine.create ~num_workers:1 () in
  let fired = ref 0 in
  let cancel = Sim.Engine.every e ~start:10 ~interval:10 (fun () -> incr fired) in
  Sim.Engine.run e (fun _ ->
      Sim.Engine.advance e 35;
      cancel ();
      Sim.Engine.advance e 100);
  check_int "beats before cancel only" 3 !fired

let engine_determinism () =
  let run () =
    let e = Sim.Engine.create ~seed:5 ~num_workers:4 () in
    let trace = Buffer.create 64 in
    Sim.Engine.run e (fun w ->
        for _ = 1 to 3 do
          Sim.Engine.advance e ((w * 7) + 3);
          Buffer.add_string trace (Printf.sprintf "%d@%d;" w (Sim.Engine.now e))
        done);
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

let engine_max_time () =
  let e = Sim.Engine.create ~num_workers:3 () in
  Sim.Engine.run e (fun w -> Sim.Engine.advance e (100 * (w + 1)));
  check_int "makespan" 300 (Sim.Engine.max_time e)

(* ----------------------------- membus ----------------------------- *)

let membus_no_stall_under_capacity () =
  let b = Sim.Membus.create ~bytes_per_cycle:10.0 in
  (* 100 bytes over 100 compute cycles: demand 1 B/cy << 10. *)
  check_int "compute-bound" 100 (Sim.Membus.serve b ~now:0 ~compute:100 ~bytes:100)

let membus_caps_throughput () =
  let b = Sim.Membus.create ~bytes_per_cycle:10.0 in
  (* Two requesters at the same instant, each 1000 bytes, no compute:
     the second finishes only after both transfers. *)
  let t1 = Sim.Membus.serve b ~now:0 ~compute:0 ~bytes:1000 in
  let t2 = Sim.Membus.serve b ~now:0 ~compute:0 ~bytes:1000 in
  check_int "first: own transfer" 100 t1;
  check_int "second: queued behind" 200 t2

let membus_idle_resets () =
  let b = Sim.Membus.create ~bytes_per_cycle:10.0 in
  ignore (Sim.Membus.serve b ~now:0 ~compute:0 ~bytes:1000);
  (* Much later, the bus is idle again. *)
  check_int "no residual backlog" 10 (Sim.Membus.serve b ~now:10_000 ~compute:0 ~bytes:100)

let membus_zero_bytes () =
  let b = Sim.Membus.create ~bytes_per_cycle:1.0 in
  check_int "pure compute" 42 (Sim.Membus.serve b ~now:0 ~compute:42 ~bytes:0)

(* ----------------------------- metrics ---------------------------- *)

let metrics_overhead_attribution () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add_overhead m Sim.Metrics.Poll 50;
  Sim.Metrics.add_overhead m Sim.Metrics.Poll 25;
  Sim.Metrics.add_overhead m Sim.Metrics.Steal 10;
  Sim.Metrics.add_overhead m Sim.Metrics.Closure 0;
  check_int "per kind" 75 (Sim.Metrics.overhead_of m Sim.Metrics.Poll);
  check_int "total" 85 m.Sim.Metrics.overhead_cycles;
  Alcotest.(check (list (pair string int)))
    "nonzero kinds by name" [ ("poll", 75); ("steal", 10) ] (Sim.Metrics.attribution m)

(* The kind list is in name order (the attribution view relies on it) and
   every name maps back to its kind. *)
let metrics_kind_names () =
  let names = List.map Sim.Metrics.kind_name Sim.Metrics.kinds in
  check_int "kinds" 22 (List.length names);
  Alcotest.(check (list string)) "name order, no duplicates" (List.sort_uniq compare names) names;
  List.iter
    (fun k ->
      check_bool (Sim.Metrics.kind_name k) true
        (Sim.Metrics.kind_of_name (Sim.Metrics.kind_name k) = Some k))
    Sim.Metrics.kinds;
  check_bool "unknown name" true (Sim.Metrics.kind_of_name "warp-drive" = None);
  (* each kind owns its own slot of the store *)
  let m = Sim.Metrics.create () in
  List.iteri (fun i k -> Sim.Metrics.add_overhead m k (i + 1)) Sim.Metrics.kinds;
  Alcotest.(check (list (pair string int)))
    "one slot per kind"
    (List.mapi (fun i name -> (name, i + 1)) names)
    (Sim.Metrics.attribution m)

let metrics_promotion_shares () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.promotion_at_level m 0;
  Sim.Metrics.promotion_at_level m 0;
  Sim.Metrics.promotion_at_level m 1;
  Sim.Metrics.promotion_at_level m 99 (* clamped into the last bucket *);
  let shares = Sim.Metrics.promotion_share_by_level m in
  Alcotest.(check (float 0.001)) "level 0" 50.0 shares.(0);
  Alcotest.(check (float 0.001)) "level 1" 25.0 shares.(1)

let metrics_detection_rate () =
  let m = Sim.Metrics.create () in
  m.Sim.Metrics.heartbeats_generated <- 200;
  m.Sim.Metrics.heartbeats_detected <- 150;
  Alcotest.(check (float 0.001)) "rate" 75.0 (Sim.Metrics.detection_rate m)

let engine_schedule_at_order () =
  let e = Sim.Engine.create ~num_workers:1 () in
  let log = ref [] in
  Sim.Engine.schedule_at e ~time:50 (fun () -> log := "b" :: !log);
  Sim.Engine.schedule_at e ~time:50 (fun () -> log := "c" :: !log);
  Sim.Engine.schedule_at e ~time:10 (fun () -> log := "a" :: !log);
  Sim.Engine.run e (fun _ -> Sim.Engine.advance e 100);
  (* time order first, then FIFO among ties *)
  Alcotest.(check (list string)) "ordering" [ "a"; "b"; "c" ] (List.rev !log)

let engine_unpark_not_parked_is_noop () =
  let e = Sim.Engine.create ~num_workers:2 () in
  Sim.Engine.run e (fun w ->
      if w = 0 then begin
        (* worker 1 is not parked yet; this must be a harmless no-op *)
        Sim.Engine.unpark e 1;
        Sim.Engine.advance e 10;
        Sim.Engine.unpark_all e
      end
      else begin
        Sim.Engine.advance e 5;
        Sim.Engine.park e
      end);
  check_int "worker 1 resumed at waker's clock" 10 (Sim.Engine.clock_of e 1)

(* --------------------------- cost model ---------------------------- *)

let cost_model_conversions () =
  let cm = Sim.Cost_model.default in
  Alcotest.(check int) "us -> cycles" 300_000 (Sim.Cost_model.cycles_of_us cm 100.0);
  Alcotest.(check (float 1e-9)) "cycles -> us" 100.0 (Sim.Cost_model.us_of_cycles cm 300_000);
  Alcotest.(check (float 1e-12)) "cycles -> s" 1e-4 (Sim.Cost_model.seconds_of_cycles cm 300_000)

let cost_model_presets () =
  let p = Sim.Cost_model.paper and d = Sim.Cost_model.default in
  check_int "paper heartbeat = 100us at 3GHz" 300_000 p.Sim.Cost_model.heartbeat_interval;
  check_int "paper interrupt cost" 3_800 p.Sim.Cost_model.interrupt_delivery_cost;
  check_int "paper poll cost" 50 p.Sim.Cost_model.poll_cost;
  check_int "scaled heartbeat = paper / 10" (p.Sim.Cost_model.heartbeat_interval / 10)
    d.Sim.Cost_model.heartbeat_interval;
  check_int "poll cost is physical (unscaled)" p.Sim.Cost_model.poll_cost d.Sim.Cost_model.poll_cost;
  (* the ping thread's team-signalling time keeps the paper's ~55% of the
     heartbeat period *)
  check_bool "ping stretch ratio preserved" true
    (let ratio cm =
       Float.of_int (64 * cm.Sim.Cost_model.signal_send_cost)
       /. Float.of_int cm.Sim.Cost_model.heartbeat_interval
     in
     ratio d > 0.5 && ratio d < 2.5)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "rng: deterministic per seed" `Quick rng_deterministic;
    Alcotest.test_case "rng: int bounds" `Quick rng_int_bounds;
    Alcotest.test_case "rng: float bounds" `Quick rng_float_bounds;
    Alcotest.test_case "rng: uniform mean" `Quick rng_int_mean;
    Alcotest.test_case "rng: split independence" `Quick rng_split_independent;
    qt rng_zipf_bounds;
    Alcotest.test_case "rng: zipf is skewed" `Quick rng_zipf_skew;
    Alcotest.test_case "deque: owner LIFO" `Quick deque_lifo_owner;
    Alcotest.test_case "deque: thief FIFO" `Quick deque_fifo_thief;
    Alcotest.test_case "deque: growth preserves order" `Quick deque_growth;
    qt deque_model;
    Alcotest.test_case "engine: virtual-time ordering" `Quick engine_virtual_time_order;
    Alcotest.test_case "engine: park/unpark" `Quick engine_park_unpark;
    Alcotest.test_case "engine: deadlock detection" `Quick engine_deadlock_detected;
    Alcotest.test_case "engine: recurring callback + cancel" `Quick engine_callbacks_and_cancel;
    Alcotest.test_case "engine: deterministic" `Quick engine_determinism;
    Alcotest.test_case "engine: max_time" `Quick engine_max_time;
    Alcotest.test_case "membus: under capacity" `Quick membus_no_stall_under_capacity;
    Alcotest.test_case "membus: caps throughput" `Quick membus_caps_throughput;
    Alcotest.test_case "membus: idles" `Quick membus_idle_resets;
    Alcotest.test_case "membus: zero bytes" `Quick membus_zero_bytes;
    Alcotest.test_case "metrics: attribution" `Quick metrics_overhead_attribution;
    Alcotest.test_case "metrics: kind names" `Quick metrics_kind_names;
    Alcotest.test_case "metrics: promotion shares" `Quick metrics_promotion_shares;
    Alcotest.test_case "metrics: detection rate" `Quick metrics_detection_rate;
    Alcotest.test_case "cost model: conversions" `Quick cost_model_conversions;
    Alcotest.test_case "cost model: presets" `Quick cost_model_presets;
    Alcotest.test_case "engine: schedule_at ordering" `Quick engine_schedule_at_order;
    Alcotest.test_case "engine: unpark no-op" `Quick engine_unpark_not_parked_is_noop;
  ]
