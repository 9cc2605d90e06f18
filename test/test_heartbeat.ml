(* Direct unit tests for the heartbeat signaling mechanisms (the executor
   tests cover them end-to-end; these pin their detection semantics). *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let interval = Hbc_core.Rt_config.default.Hbc_core.Rt_config.cost.Sim.Cost_model.heartbeat_interval

let with_worker cfg f =
  (* One simulated worker driving checks at chosen times. *)
  let eng = Sim.Engine.create ~num_workers:1 () in
  let metrics = Sim.Metrics.create () in
  let hb = Hbc_core.Heartbeat.create cfg eng metrics in
  Hbc_core.Heartbeat.start hb;
  Sim.Engine.run eng (fun _ ->
      Hbc_core.Heartbeat.set_busy hb ~worker:0 true;
      f eng hb metrics;
      Hbc_core.Heartbeat.set_busy hb ~worker:0 false;
      Hbc_core.Heartbeat.stop hb);
  metrics

let polling_detects_interval_boundary () =
  let m =
    with_worker Hbc_core.Rt_config.default (fun eng hb _ ->
        check_int "poll costs 50" 50 (Hbc_core.Heartbeat.poll_cost hb ~worker:0);
        (* before the boundary: nothing *)
        Sim.Engine.advance eng (interval / 2);
        check_bool "no beat yet" false (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:true);
        (* crossing one boundary: exactly one detection *)
        Sim.Engine.advance eng interval;
        check_bool "beat" true (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:true);
        check_bool "consumed" false (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:true))
  in
  check_int "polls counted" 3 m.Sim.Metrics.polls;
  check_int "detected" 1 m.Sim.Metrics.heartbeats_detected;
  check_int "generated" 1 m.Sim.Metrics.heartbeats_generated

let polling_counts_missed_gaps () =
  let m =
    with_worker Hbc_core.Rt_config.default (fun eng hb _ ->
        (* a long silence spanning 5 intervals collapses into one detection
           and 4 missed beats *)
        Sim.Engine.advance eng (5 * interval);
        check_bool "late beat" true (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:true))
  in
  check_int "generated 5" 5 m.Sim.Metrics.heartbeats_generated;
  check_int "detected 1" 1 m.Sim.Metrics.heartbeats_detected;
  check_int "missed 4" 4 m.Sim.Metrics.heartbeats_missed

let set_busy_resets_polling_baseline () =
  let m =
    with_worker Hbc_core.Rt_config.default (fun eng hb _ ->
        Hbc_core.Heartbeat.set_busy hb ~worker:0 false;
        (* idle across many intervals *)
        Sim.Engine.advance eng (10 * interval);
        Hbc_core.Heartbeat.set_busy hb ~worker:0 true;
        (* becoming busy must not surface the idle backlog as missed beats *)
        Sim.Engine.advance eng 100;
        check_bool "no spurious beat" false
          (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:true))
  in
  check_int "no misses charged" 0 m.Sim.Metrics.heartbeats_missed

let kernel_module_pending_and_missed () =
  let m =
    with_worker (Hbc_core.Rt_config.hbc_kernel_module ~chunk:64) (fun eng hb _ ->
        check_int "no poll cost under interrupts" 0 (Hbc_core.Heartbeat.poll_cost hb ~worker:0);
        (* the broadcast fires while we compute; the flag is consumed at the
           next check and charges the delivery cost *)
        Sim.Engine.advance eng (interval + 10);
        let t0 = Sim.Engine.now eng in
        check_bool "pending beat taken" true
          (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:false);
        check_bool "delivery cost charged" true (Sim.Engine.now eng > t0);
        (* ignoring two further beats: the second overwrite counts missed *)
        Sim.Engine.advance eng (2 * interval);
        check_bool "still one pending" true
          (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:false))
  in
  check_bool "some generated" true (m.Sim.Metrics.heartbeats_generated >= 3);
  check_int "overwritten beat missed" 1 m.Sim.Metrics.heartbeats_missed;
  check_bool "interrupt cost attributed" true (Sim.Metrics.overhead_of m Sim.Metrics.Interrupt > 0)

let ping_thread_stretch_accounting () =
  (* With one busy worker the ping thread keeps up; its delivery is late by
     one send slot but no beats are lost. *)
  let m =
    with_worker (Hbc_core.Rt_config.hbc_ping_thread ~chunk:64) (fun eng hb _ ->
        Sim.Engine.advance eng (interval + 2_000);
        check_bool "delivered" true (Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll:false))
  in
  check_int "no misses with one worker" 0 m.Sim.Metrics.heartbeats_missed

let stop_cancels_beats () =
  let eng = Sim.Engine.create ~num_workers:1 () in
  let metrics = Sim.Metrics.create () in
  let hb =
    Hbc_core.Heartbeat.create (Hbc_core.Rt_config.hbc_kernel_module ~chunk:64) eng metrics
  in
  Hbc_core.Heartbeat.start hb;
  Sim.Engine.run eng (fun _ ->
      Hbc_core.Heartbeat.set_busy hb ~worker:0 true;
      Sim.Engine.advance eng (2 * interval);
      Hbc_core.Heartbeat.stop hb;
      let before = metrics.Sim.Metrics.heartbeats_generated in
      Sim.Engine.advance eng (5 * interval);
      check_int "no beats after stop" before metrics.Sim.Metrics.heartbeats_generated)

(* ------------- the boundary check against the division rule ------------- *)

type op = Advance of int | Busy of bool | Poll of bool

(* Software polling as the division rule states it: a poll detects a beat
   when [now / interval] exceeds the last interval the worker saw, and
   reports [gap] generated beats, one detected and [gap - 1] missed;
   [set_busy] and a watchdog downgrade reset the last interval to the
   one they happen in. [Heartbeat.consume] compares the clock with a
   stored boundary instead, and must report the same detections and the
   same events. Under the kernel module every beat is lost and
   [watchdog_k = 1], so the first beat that finds the worker busy
   downgrades it to polling at a point the op list decides. *)
let boundary_matches_division (interval, km, ops) =
  let cost = { Sim.Cost_model.default with Sim.Cost_model.heartbeat_interval = interval } in
  let base =
    if km then Hbc_core.Rt_config.hbc_kernel_module ~chunk:64 else Hbc_core.Rt_config.hbc
  in
  let cfg = { base with Hbc_core.Rt_config.workers = 1; cost; watchdog_k = 1 } in
  let eng = Sim.Engine.create ~num_workers:1 () in
  let log = ref [] and logged = ref 0 in
  let observer =
    Obs.Trace.Sink.fn (fun ~time ~worker:_ ev ->
        log := (time, ev) :: !log;
        incr logged)
  in
  let injector =
    Sim.Fault_injector.create
      { Sim.Fault_plan.none with Sim.Fault_plan.seed = 1; beat_drop_prob = 1.0 }
      ~num_workers:1 ()
  in
  let hb = Hbc_core.Heartbeat.create ~injector ~observer cfg eng (Sim.Metrics.create ()) in
  (* The events logged after the first [n], oldest first. *)
  let since n = List.rev (List.filteri (fun i _ -> i < !logged - n) !log) in
  let polling = ref (not km) and last = ref 0 and seen = ref 0 and ok = ref true in
  let catch_up () =
    List.iter
      (fun (time, ev) ->
        if ev = Obs.Trace.Mechanism_downgrade then begin
          polling := true;
          last := time / interval
        end)
      (since !seen);
    seen := !logged
  in
  Hbc_core.Heartbeat.start hb;
  Sim.Engine.run eng (fun _ ->
      List.iter
        (fun op ->
          catch_up ();
          match op with
          | Advance c -> Sim.Engine.advance eng c
          | Busy b ->
              Hbc_core.Heartbeat.set_busy hb ~worker:0 b;
              if b && !polling then last := Sim.Engine.now eng / interval
          | Poll count_poll ->
              let got = Hbc_core.Heartbeat.consume hb ~worker:0 ~count_poll in
              let emitted = List.map snd (since !seen) in
              let polls = if !polling && count_poll then [ Obs.Trace.Poll ] else [] in
              let cur = Sim.Engine.now eng / interval in
              let expected, events =
                if !polling && cur > !last then begin
                  let gap = cur - !last in
                  last := cur;
                  ( true,
                    polls
                    @ List.init gap (fun _ -> Obs.Trace.Heartbeat_generated)
                    @ [ Obs.Trace.Heartbeat_detected ]
                    @ List.init (gap - 1) (fun _ -> Obs.Trace.Heartbeat_missed) )
                end
                else (false, polls)
              in
              if got <> expected || emitted <> events then ok := false)
        ops;
      Hbc_core.Heartbeat.stop hb);
  !ok

let boundary_arbitrary =
  let open QCheck.Gen in
  let gen =
    let* interval = int_range 1 64 in
    let* km = bool in
    let op =
      frequency
        [
          (3, map (fun c -> Advance c) (int_range 0 (3 * interval)));
          (1, map (fun b -> Busy b) bool);
          (3, map (fun b -> Poll b) bool);
        ]
    in
    let* ops = list_size (int_range 1 200) op in
    return (interval, km, ops)
  in
  let show = function
    | Advance c -> Printf.sprintf "A%d" c
    | Busy b -> if b then "B+" else "B-"
    | Poll b -> if b then "P" else "p"
  in
  QCheck.make
    ~print:(fun (interval, km, ops) ->
      Printf.sprintf "interval=%d km=%b ops=[%s]" interval km
        (String.concat " " (List.map show ops)))
    gen

let boundary_random =
  QCheck.Test.make ~name:"polling boundary equals the division rule" ~count:500
    boundary_arbitrary boundary_matches_division

let suite =
  [
    Alcotest.test_case "polling: boundary detection" `Quick polling_detects_interval_boundary;
    Alcotest.test_case "polling: missed gaps" `Quick polling_counts_missed_gaps;
    Alcotest.test_case "polling: busy baseline reset" `Quick set_busy_resets_polling_baseline;
    Alcotest.test_case "kernel module: pending/missed" `Quick kernel_module_pending_and_missed;
    Alcotest.test_case "ping thread: single-worker delivery" `Quick ping_thread_stretch_accounting;
    Alcotest.test_case "stop cancels timers" `Quick stop_cancels_beats;
    QCheck_alcotest.to_alcotest boundary_random;
  ]
