(* Tests for the simulation substrate: RNG, deque, engine, the engine's
   memory bus, metrics. *)

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

(* ------------------- engine vs a naive event model ----------------- *)

(* Scripted workers run against the engine and against a model that
   keeps its events in a list and scans it for the smallest (time, seq).
   The model yields on every advance, so any run-ahead shortcut in the
   engine must give the same dispatches, the same [events_processed],
   the same budget and guard stops, and must not cross a boundary: a
   callback queued before any other event, as pause/resume boundaries
   are, that records where it fires. *)

type op = Adv of int | Park_op | Unpark_op of int | Sched_op of int * int option

type boundaries = {
  pause : int option;
  budget : int option;
  guard : (int * int) option;  (* poll every n dispatches; stop at the k-th poll *)
}

let no_boundaries = { pause = None; budget = None; guard = None }

(* A run's observable history: (worker, time) after every advance and
   park ([-1] for a callback firing, [-2] for a guard poll with the
   dispatch count, [-3] for a stop seen inside a worker, which the model
   never logs), the dispatch count and log length where the boundary
   fires, the final dispatch count and how the run ended. *)
type outcome = {
  log : (int * int) list;
  at_pause : (int * int) option;
  processed : int;
  ending : string;
}

let show_outcome o =
  Printf.sprintf "ending=%s processed=%d pause=%s log=[%s]" o.ending o.processed
    (match o.at_pause with None -> "-" | Some (d, l) -> Printf.sprintf "(%d,%d)" d l)
    (String.concat ";" (List.map (fun (w, t) -> Printf.sprintf "%d@%d" w t) o.log))

let engine_outcome nworkers scripts b =
  let e = Sim.Engine.create ~num_workers:nworkers () in
  let log = ref [] in
  let note w = log := (w, Sim.Engine.now e) :: !log in
  let polls = ref 0 in
  let at_pause = ref None in
  Option.iter
    (fun time ->
      Sim.Engine.schedule_at e ~time (fun () ->
          at_pause := Some (Sim.Engine.events_processed e, List.length !log)))
    b.pause;
  Option.iter (Sim.Engine.set_budget e) b.budget;
  Option.iter
    (fun (every, stop) ->
      Sim.Engine.set_guard e ~every (fun () ->
          incr polls;
          log := (-2, Sim.Engine.events_processed e) :: !log;
          if !polls >= stop then Some "stop" else None))
    b.guard;
  let main w =
    List.iter
      (function
        | Adv k ->
            (* A budget or guard stop must be raised by the dispatch loop,
               never inside a worker, whose own handlers would see it. *)
            (try Sim.Engine.advance e k
             with ex ->
               note (-3);
               raise ex);
            note w
        | Park_op ->
            Sim.Engine.park e;
            note w
        | Unpark_op v -> Sim.Engine.unpark e v
        | Sched_op (dt, wake) ->
            Sim.Engine.schedule_at e ~time:(Sim.Engine.now e + dt) (fun () ->
                note (-1);
                Option.iter (Sim.Engine.unpark e) wake))
      scripts.(w);
    Sim.Engine.unpark_all e
  in
  let ending =
    try
      Sim.Engine.run e main;
      "finished"
    with
    | Sim.Engine.Deadlock _ -> "deadlock"
    | Sim.Engine.Budget_exceeded { time; _ } -> Printf.sprintf "budget at %d" time
    | Sim.Engine.Guard_stop r -> "guard " ^ r
  in
  { log = List.rev !log; at_pause = !at_pause; processed = Sim.Engine.events_processed e; ending }

exception Model_stop of string

type payload = Start of int | Resume of int | Fire of int option | Boundary

let model_outcome nworkers scripts b =
  let clock = Array.make nworkers 0 in
  let rest = Array.copy scripts in
  let parked = Array.make nworkers false in
  let live = ref nworkers in
  let q = ref [] and seq = ref 0 in
  let push time p =
    q := (time, !seq, p) :: !q;
    incr seq
  in
  let log = ref [] in
  let unpark now v =
    if parked.(v) then begin
      parked.(v) <- false;
      clock.(v) <- Int.max clock.(v) now;
      push clock.(v) (Resume v)
    end
  in
  (* Run worker [w] until it yields, parks or finishes. *)
  let rec step w =
    match rest.(w) with
    | [] ->
        for v = 0 to nworkers - 1 do
          unpark clock.(w) v
        done;
        decr live
    | op :: tl -> (
        rest.(w) <- tl;
        match op with
        | Adv k ->
            clock.(w) <- clock.(w) + k;
            push clock.(w) (Resume w)
        | Park_op -> parked.(w) <- true
        | Unpark_op v ->
            unpark clock.(w) v;
            step w
        | Sched_op (dt, wake) ->
            push (clock.(w) + dt) (Fire wake);
            step w)
  in
  let earliest () =
    List.fold_left
      (fun best ((t, s, _) as ev) ->
        match best with
        | Some (bt, bs, _) when bt < t || (bt = t && bs < s) -> best
        | _ -> Some ev)
      None !q
  in
  Option.iter (fun time -> push time Boundary) b.pause;
  for w = 0 to nworkers - 1 do
    push 0 (Start w)
  done;
  let processed = ref 0 and at_pause = ref None in
  let countdown = ref (match b.guard with Some (every, _) -> every | None -> 0) in
  let polls = ref 0 in
  let ending =
    try
      while !live > 0 do
        match earliest () with
        | None -> raise (Model_stop "deadlock")
        | Some (time, s, p) -> (
            q := List.filter (fun (_, s', _) -> s' <> s) !q;
            incr processed;
            (match b.budget with
            | Some cap when time > cap -> raise (Model_stop (Printf.sprintf "budget at %d" time))
            | _ -> ());
            (match b.guard with
            | Some (every, stop) ->
                decr countdown;
                if !countdown <= 0 then begin
                  countdown := every;
                  incr polls;
                  log := (-2, !processed) :: !log;
                  if !polls >= stop then raise (Model_stop "guard stop")
                end
            | None -> ());
            match p with
            | Start w -> step w
            | Resume w ->
                log := (w, clock.(w)) :: !log;
                step w
            | Fire wake ->
                log := (-1, time) :: !log;
                Option.iter (unpark time) wake
            | Boundary -> at_pause := Some (!processed, List.length !log))
      done;
      "finished"
    with Model_stop s -> s
  in
  { log = List.rev !log; at_pause = !at_pause; processed = !processed; ending }

let scripts_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  let cycles =
    frequency [ (2, return 0); (5, int_range 1 4); (2, int_range 5 40); (1, int_range 100 300) ]
  in
  let op =
    frequency
      [
        (8, map (fun k -> Adv k) cycles);
        (1, return Park_op);
        (2, map (fun v -> Unpark_op v) (int_bound (n - 1)));
        (2, map2 (fun dt wake -> Sched_op (dt, wake)) (int_bound 40) (opt (int_bound (n - 1))));
      ]
  in
  map (fun l -> (n, Array.of_list l)) (list_repeat n (list_size (int_bound 30) op))

(* Boundaries land on times and dispatch counts the run really reaches,
   so they fall on run-ahead steps as often as the scripts allow. *)
let boundaries_of ~kinds ~pick (ref_outcome : outcome) =
  let times = List.filter_map (fun (w, t) -> if w >= 0 then Some t else None) ref_outcome.log in
  let nth l k = List.nth l (k mod List.length l) in
  let on bit = kinds land bit <> 0 && times <> [] in
  {
    pause = (if on 1 then Some (nth times pick) else None);
    budget = (if on 2 then Some (nth times (pick / 7) - (pick land 1)) else None);
    guard =
      (if on 4 then Some (1 + (pick mod Int.max 1 ref_outcome.processed), 1 + (pick mod 3))
       else None);
  }

let show_op = function
  | Adv k -> Printf.sprintf "adv %d" k
  | Park_op -> "park"
  | Unpark_op v -> Printf.sprintf "unpark %d" v
  | Sched_op (dt, wake) ->
      Printf.sprintf "sched +%d%s" dt
        (match wake with None -> "" | Some v -> Printf.sprintf " wakes %d" v)

let engine_matches_model =
  QCheck.Test.make ~name:"engine: dispatches match a naive model" ~count:1000
    (QCheck.make
       ~print:(fun ((n, scripts), kinds, pick) ->
         Printf.sprintf "workers=%d kinds=%d pick=%d\n%s" n kinds pick
           (String.concat "\n"
              (Array.to_list
                 (Array.mapi
                    (fun w s ->
                      Printf.sprintf "w%d: %s" w (String.concat ", " (List.map show_op s)))
                    scripts))))
       QCheck.Gen.(triple scripts_gen (int_bound 7) (int_bound 10_000)))
    (fun ((n, scripts), kinds, pick) ->
      let b = boundaries_of ~kinds ~pick (model_outcome n scripts no_boundaries) in
      let want = model_outcome n scripts b and got = engine_outcome n scripts b in
      got = want
      || QCheck.Test.fail_reportf "engine %s\nmodel  %s" (show_outcome got) (show_outcome want))

(* A lone worker never meets an earlier event after its start, so every
   advance runs ahead; each still counts as one dispatch, as it did when
   every advance was a yield. *)
let engine_lone_worker_dispatches () =
  let e = Sim.Engine.create ~num_workers:1 () in
  Sim.Engine.run e (fun _ ->
      for i = 1 to 1_000 do
        Sim.Engine.advance e (i land 3)
      done);
  check_int "start callback + 1000 advances" 1_001 (Sim.Engine.events_processed e);
  check_int "clock" (250 * (0 + 1 + 2 + 3)) (Sim.Engine.max_time e)

(* ----------------------------- membus ----------------------------- *)

(* The engine's shared bus, driven through [Sim.Engine.charge] from
   worker context; [charges] collects each worker's charged cycles. *)
let bus_run ~bytes_per_cycle ~workers body =
  let e = Sim.Engine.create ~bus_bytes_per_cycle:bytes_per_cycle ~num_workers:workers () in
  let charges = Array.make workers [] in
  Sim.Engine.run e (fun w ->
      body e (fun ~compute ~bytes ->
          charges.(w) <- Sim.Engine.charge e ~compute ~bytes :: charges.(w)));
  (e, Array.map List.rev charges)

let membus_no_stall_under_capacity () =
  (* 100 bytes over 100 compute cycles: demand 1 B/cy << 10. *)
  let e, charges =
    bus_run ~bytes_per_cycle:10.0 ~workers:1 (fun _ charge -> charge ~compute:100 ~bytes:100)
  in
  Alcotest.(check (list int)) "compute-bound" [ 100 ] charges.(0);
  check_int "advanced by the charge" 100 (Sim.Engine.max_time e)

let membus_caps_throughput () =
  (* Two requesters at the same instant, each 1000 bytes, no compute:
     the second finishes only after both transfers. *)
  let _, charges =
    bus_run ~bytes_per_cycle:10.0 ~workers:2 (fun _ charge -> charge ~compute:0 ~bytes:1000)
  in
  Alcotest.(check (list int)) "first: own transfer" [ 100 ] charges.(0);
  Alcotest.(check (list int)) "second: queued behind" [ 200 ] charges.(1)

let membus_idle_resets () =
  let _, charges =
    bus_run ~bytes_per_cycle:10.0 ~workers:1 (fun e charge ->
        charge ~compute:0 ~bytes:1000;
        (* Much later, the bus is idle again. *)
        Sim.Engine.advance e (10_000 - Sim.Engine.now e);
        charge ~compute:0 ~bytes:100)
  in
  Alcotest.(check (list int)) "no residual backlog" [ 100; 10 ] charges.(0)

let membus_zero_bytes () =
  let e, charges =
    bus_run ~bytes_per_cycle:1.0 ~workers:1 (fun _ charge -> charge ~compute:42 ~bytes:0)
  in
  Alcotest.(check (list int)) "pure compute" [ 42 ] charges.(0);
  check_int "advanced by the charge" 42 (Sim.Engine.max_time e)

(* Random multi-worker bus schedules through [Sim.Engine.charge],
   compared per worker: each charge's clock and result, and the final
   clocks. The model runs the workers in (time, seq) order, as the engine
   dispatches them, and books the bus with the formula as first written: [Float.max]
   of the bus's free time and the clock, plus the transfer, and the
   [Float.ceil] of the stall. Byte counts are often whole multiples of the
   bus's bytes per cycle, so stalls end exactly on a cycle and a worker's
   next booking finds the bus free at its own clock. *)
type bus_op = Charge of int * int | Wait of int

let bus_model ~bytes_per_cycle scripts =
  let n = Array.length scripts in
  let clock = Array.make n 0 and rest = Array.copy scripts in
  let free = ref 0.0 and log = Array.make n [] in
  let q = ref [] and seq = ref 0 in
  let push w =
    q := (clock.(w), !seq, w) :: !q;
    incr seq
  in
  let rec step w =
    match rest.(w) with
    | [] -> ()
    | op :: tl ->
        rest.(w) <- tl;
        let c =
          match op with
          | Wait c -> c
          | Charge (compute, bytes) ->
              let total =
                if bytes <= 0 then compute
                else begin
                  let now = Float.of_int clock.(w) in
                  let finish = Float.max !free now +. (Float.of_int bytes /. bytes_per_cycle) in
                  free := finish;
                  Int.max compute (int_of_float (Float.ceil (finish -. now)))
                end
              in
              log.(w) <- (clock.(w), total) :: log.(w);
              total
        in
        if c > 0 then begin
          clock.(w) <- clock.(w) + c;
          push w
        end
        else step w
  in
  for w = 0 to n - 1 do
    push w
  done;
  let rec loop () =
    match List.sort compare !q with
    | [] -> ()
    | (_, s, w) :: _ ->
        q := List.filter (fun (_, s', _) -> s' <> s) !q;
        step w;
        loop ()
  in
  loop ();
  (Array.map List.rev log, clock)

let bus_engine ~bytes_per_cycle scripts =
  let n = Array.length scripts in
  let e = Sim.Engine.create ~bus_bytes_per_cycle:bytes_per_cycle ~num_workers:n () in
  let log = Array.make n [] in
  Sim.Engine.run e (fun w ->
      List.iter
        (function
          | Wait c -> Sim.Engine.advance e c
          | Charge (compute, bytes) ->
              let now = Sim.Engine.now e in
              let total = Sim.Engine.charge e ~compute ~bytes in
              log.(w) <- (now, total) :: log.(w))
        scripts.(w));
  (Array.map List.rev log, Array.init n (Sim.Engine.clock_of e))

(* Bus rates with the byte count of a whole number of cycles on each. *)
let bus_rates =
  [ (0.5, 1); (0.75, 3); (1.0, 1); (2.0, 2); (2.5, 5); (3.0, 3); (10.0, 10); (44.0, 44) ]

let bus_schedule_gen =
  let open QCheck.Gen in
  pair (oneofl bus_rates) (int_range 1 4) >>= fun ((rate, whole), n) ->
  let compute = frequency [ (3, return 0); (3, int_range 1 20); (1, int_range 20 400) ] in
  let bytes =
    frequency
      [ (1, return 0); (4, map (fun k -> k * whole) (int_range 1 40)); (3, int_range 1 500) ]
  in
  let op =
    frequency
      [
        (6, map2 (fun c b -> Charge (c, b)) compute bytes);
        (1, map (fun c -> Wait c) (int_range 1 60));
      ]
  in
  map (fun l -> (rate, Array.of_list l)) (list_repeat n (list_size (int_bound 25) op))

let bus_charge_matches_model =
  QCheck.Test.make ~name:"membus: charges match the float model" ~count:1000
    (QCheck.make
       ~print:(fun (rate, scripts) ->
         Printf.sprintf "%g B/cy\n%s" rate
           (String.concat "\n"
              (Array.to_list
                 (Array.mapi
                    (fun w s ->
                      Printf.sprintf "w%d: %s" w
                        (String.concat ", "
                           (List.map
                              (function
                                | Charge (c, b) -> Printf.sprintf "charge %d+%dB" c b
                                | Wait c -> Printf.sprintf "wait %d" c)
                              s)))
                    scripts))))
       bus_schedule_gen)
    (fun (bytes_per_cycle, scripts) ->
      let got = bus_engine ~bytes_per_cycle scripts and want = bus_model ~bytes_per_cycle scripts in
      let show (logs, clocks) =
        String.concat "\n"
          (Array.to_list
             (Array.mapi
                (fun w log ->
                  let charge (now, c) = Printf.sprintf "%d@%d" c now in
                  Printf.sprintf "w%d (clock %d): %s" w clocks.(w)
                    (String.concat " " (List.map charge log)))
                logs))
      in
      got = want || QCheck.Test.fail_reportf "engine %s\nmodel  %s" (show got) (show want))

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

(* Exceptions and deadlocks after many worker handoffs. Equal steps keep
   the workers' clocks tied, so every advance yields and hands off to
   the next worker from inside the yield handler; a stop must still
   leave [run] as raised. *)
exception Boom

let tied_steps e n = for _ = 1 to n do Sim.Engine.advance e 1 done

let engine_callback_exception_escapes () =
  let e = Sim.Engine.create ~num_workers:4 () in
  Sim.Engine.schedule_at e ~time:2_000 (fun () -> raise Boom);
  (match Sim.Engine.run e (fun _ -> tied_steps e 10_000) with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom -> ());
  check_bool "after >= 1000 handoffs" true (Sim.Engine.events_processed e >= 1_000);
  check_int "raised at the callback's time" 2_000 (Sim.Engine.now e)

let engine_worker_exception_escapes () =
  let e = Sim.Engine.create ~num_workers:4 () in
  let payload = Failure "worker 2" in
  (match
     Sim.Engine.run e (fun w ->
         tied_steps e 3_000;
         if w = 2 then raise payload;
         tied_steps e 3_000)
   with
  | () -> Alcotest.fail "expected the worker's exception"
  | exception x -> check_bool "the raised value itself" true (x == payload));
  check_bool "after >= 1000 handoffs" true (Sim.Engine.events_processed e >= 1_000)

let engine_deadlock_after_handoffs () =
  let e = Sim.Engine.create ~num_workers:8 () in
  let msg =
    try
      Sim.Engine.run e (fun _ ->
          tied_steps e 500;
          Sim.Engine.park e);
      Alcotest.fail "expected Deadlock"
    with Sim.Engine.Deadlock m -> m
  in
  check_bool "after >= 1000 handoffs" true (Sim.Engine.events_processed e >= 1_000);
  for w = 0 to 7 do
    let sub = Printf.sprintf "worker %d: clock=500 parked" w in
    check_bool (Printf.sprintf "mentions %S" sub) true (contains ~sub msg)
  done

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
    qt bus_charge_matches_model;
    Alcotest.test_case "metrics: attribution" `Quick metrics_overhead_attribution;
    Alcotest.test_case "metrics: kind names" `Quick metrics_kind_names;
    Alcotest.test_case "metrics: promotion shares" `Quick metrics_promotion_shares;
    Alcotest.test_case "metrics: detection rate" `Quick metrics_detection_rate;
    Alcotest.test_case "cost model: conversions" `Quick cost_model_conversions;
    Alcotest.test_case "cost model: presets" `Quick cost_model_presets;
    Alcotest.test_case "engine: schedule_at ordering" `Quick engine_schedule_at_order;
    Alcotest.test_case "engine: unpark no-op" `Quick engine_unpark_not_parked_is_noop;
    qt engine_matches_model;
    Alcotest.test_case "engine: lone worker counts every advance" `Quick
      engine_lone_worker_dispatches;
    Alcotest.test_case "engine: callback exception escapes after handoffs" `Quick
      engine_callback_exception_escapes;
    Alcotest.test_case "engine: worker exception escapes after handoffs" `Quick
      engine_worker_exception_escapes;
    Alcotest.test_case "engine: deadlock snapshot after handoffs" `Quick
      engine_deadlock_after_handoffs;
  ]
