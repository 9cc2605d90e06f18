(* Differential tests for the engine's event queue: pops come out in
   strictly increasing (time, seq) order — modeled here by a stable sorted
   list — on random schedules that cover simultaneous events, pushes
   behind the last pop, and far-future events. The engine's pause-at
   boundary peeks [top_time] before every dispatch decision, so peek
   idempotence is part of the contract too. *)

let check_int = Alcotest.(check int)

(* ------------------------- reference model ------------------------ *)

(* (time, seq, code), kept sorted by (time, seq) — the queue's pop order. *)
let model_insert (t, s, c) model =
  let rec go = function
    | [] -> [ (t, s, c) ]
    | ((t', s', _) as hd) :: tl ->
        if t' > t || (t' = t && s' > s) then (t, s, c) :: hd :: tl else hd :: go tl
  in
  go model

(* Drive the queue and the model through the same op list, comparing every
   peek triple. Pushes are timed relative to the last popped time (the
   engine's dispatch cursor), so [delta] < 0 pushes behind the last pop.
   Returns false on the first divergence. *)
let run_ops ops =
  let q = Sim.Engine.Event_queue.create () in
  let model = ref [] in
  let seq = ref 0 in
  let last = ref 0 in
  let ok = ref true in
  let pop () =
    if not (Sim.Engine.Event_queue.is_empty q) then begin
      (* Double peek: the engine's run-ahead and handoff read top_time
         before deciding to drop, so peeks must not disturb the queue. *)
      let t0 = Sim.Engine.Event_queue.top_time q in
      let t = Sim.Engine.Event_queue.top_time q in
      let s = Sim.Engine.Event_queue.top_seq q in
      let c = Sim.Engine.Event_queue.top_code q in
      if t0 <> t then ok := false;
      (match !model with
      | [] -> ok := false
      | (mt, ms, mc) :: rest ->
          if t <> mt || s <> ms || c <> mc then ok := false;
          Sim.Engine.Event_queue.drop q;
          model := rest;
          last := t)
    end
  in
  List.iter
    (fun op ->
      match op with
      | None -> pop ()
      | Some delta ->
          let time = Stdlib.max 0 (!last + delta) in
          let code = !seq land 0xffff in
          Sim.Engine.Event_queue.push q ~time ~seq:!seq ~code;
          model := model_insert (time, !seq, code) !model;
          incr seq)
    ops;
  while not (Sim.Engine.Event_queue.is_empty q) do
    pop ()
  done;
  if !model <> [] then ok := false;
  if Sim.Engine.Event_queue.length q <> 0 then ok := false;
  !ok

(* Delta generator: 0 forces simultaneous events (FIFO tie-break), small
   positives mimic per-instruction advances, mid-range ones the 30k
   heartbeat re-arm distance, huge ones far-future events, and negatives
   push behind the last pop. Op lists up to 2000 long grow the queue past
   its initial capacity several times. *)
let delta_gen =
  QCheck.Gen.frequency
    [
      (3, QCheck.Gen.return 0);
      (6, QCheck.Gen.int_range 1 300);
      (4, QCheck.Gen.int_range 300 70_000);
      (1, QCheck.Gen.int_range 70_000 2_000_000);
      (2, QCheck.Gen.int_range (-500) (-1));
    ]

let op_gen =
  QCheck.Gen.frequency
    [ (3, QCheck.Gen.map (fun d -> Some d) delta_gen); (2, QCheck.Gen.return None) ]

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (function None -> "pop" | Some d -> string_of_int d) ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 2000) op_gen)

let differential_random =
  QCheck.Test.make ~name:"sorted-model order on random ops" ~count:300
    ops_arbitrary run_ops

(* [replace_top] against its two specifications. A heap of 1 to 300
   events whose times repeat often (ties broken by seq) takes a run of
   replacements, each timed relative to the current top and stamped
   with a fresh seq, as the engine's handoff does. Every replacement
   must equal [drop] then [push]. While no replacement has been earlier
   than the top, the heap must also equal one that took [push] then
   [drop]; half the cases draw no earlier replacement at all. The
   queues are compared by draining them. *)
let drain q =
  let rec go acc =
    if Sim.Engine.Event_queue.is_empty q then List.rev acc
    else begin
      let e = Sim.Engine.Event_queue.(top_time q, top_seq q, top_code q) in
      Sim.Engine.Event_queue.drop q;
      go (e :: acc)
    end
  in
  go []

let replace_top_matches (init, deltas) =
  let fill () =
    let q = Sim.Engine.Event_queue.create () in
    List.iteri (fun seq time -> Sim.Engine.Event_queue.push q ~time ~seq ~code:(seq land 0xff)) init;
    q
  in
  let q = fill () and drop_push = fill () and push_drop = fill () in
  let none_earlier = ref true in
  List.iteri
    (fun i delta ->
      let time = Sim.Engine.Event_queue.top_time q + delta in
      let seq = List.length init + i and code = i land 0xff in
      if delta < 0 then none_earlier := false;
      Sim.Engine.Event_queue.replace_top q ~time ~seq ~code;
      Sim.Engine.Event_queue.drop drop_push;
      Sim.Engine.Event_queue.push drop_push ~time ~seq ~code;
      Sim.Engine.Event_queue.push push_drop ~time ~seq ~code;
      Sim.Engine.Event_queue.drop push_drop)
    deltas;
  let got = drain q in
  got = drain drop_push && ((not !none_earlier) || got = drain push_drop)

let replace_top_arbitrary =
  let open QCheck.Gen in
  let gen =
    let* init = list_size (int_range 1 300) (int_range 0 40) in
    let* earlier = bool in
    let* deltas = list_size (int_range 1 100) (int_range (if earlier then -10 else 0) 20) in
    return (init, deltas)
  in
  QCheck.make
    ~print:(fun (init, deltas) ->
      Printf.sprintf "init=[%s] deltas=[%s]"
        (String.concat ";" (List.map string_of_int init))
        (String.concat ";" (List.map string_of_int deltas)))
    gen

let replace_top_random =
  QCheck.Test.make ~name:"replace_top is drop+push, and push+drop when not earlier" ~count:500
    replace_top_arbitrary replace_top_matches

(* ------------------------- directed cases ------------------------- *)

(* Simultaneous events pop FIFO by seq. *)
let simultaneous_fifo () =
  let q = Sim.Engine.Event_queue.create () in
  for s = 0 to 63 do
    Sim.Engine.Event_queue.push q ~time:1000 ~seq:s ~code:s
  done;
  for s = 0 to 63 do
    check_int "time" 1000 (Sim.Engine.Event_queue.top_time q);
    check_int "fifo seq" s (Sim.Engine.Event_queue.top_seq q);
    check_int "fifo code" s (Sim.Engine.Event_queue.top_code q);
    Sim.Engine.Event_queue.drop q
  done;
  Alcotest.(check bool) "drained" true (Sim.Engine.Event_queue.is_empty q)

(* Far-future events pop in (time, seq) order after the near one. *)
let far_future_order () =
  let q = Sim.Engine.Event_queue.create () in
  Sim.Engine.Event_queue.push q ~time:0 ~seq:0 ~code:0;
  Sim.Engine.Event_queue.push q ~time:10_000_000 ~seq:1 ~code:1;
  Sim.Engine.Event_queue.push q ~time:9_999_999 ~seq:2 ~code:2;
  Sim.Engine.Event_queue.push q ~time:10_000_000 ~seq:3 ~code:3;
  check_int "first" 0 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  check_int "earliest far" 2 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  check_int "fifo at equal far time" 1 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  check_int "last" 3 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  check_int "empty" 0 (Sim.Engine.Event_queue.length q)

(* A push behind the last pop is served before everything ahead of it,
   still ordered among its own. *)
let behind_last_pop_served_first () =
  let q = Sim.Engine.Event_queue.create () in
  Sim.Engine.Event_queue.push q ~time:500 ~seq:0 ~code:0;
  Sim.Engine.Event_queue.push q ~time:600 ~seq:1 ~code:1;
  check_int "front" 0 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  (* The last pop was at 500; these land behind it. *)
  Sim.Engine.Event_queue.push q ~time:100 ~seq:2 ~code:2;
  Sim.Engine.Event_queue.push q ~time:50 ~seq:3 ~code:3;
  check_int "earliest behind" 3 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  check_int "next behind" 2 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  check_int "then ahead" 1 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  check_int "empty" 0 (Sim.Engine.Event_queue.length q)

(* Draining the queue and pushing again far away keeps the ordering,
   including a later push just behind the first one. *)
let drain_then_repush () =
  let q = Sim.Engine.Event_queue.create () in
  Sim.Engine.Event_queue.push q ~time:3 ~seq:0 ~code:0;
  Sim.Engine.Event_queue.drop q;
  Sim.Engine.Event_queue.push q ~time:1_000_000_007 ~seq:1 ~code:1;
  check_int "re-pushed" 1_000_000_007 (Sim.Engine.Event_queue.top_time q);
  Sim.Engine.Event_queue.push q ~time:1_000_000_005 ~seq:2 ~code:2;
  check_int "earlier re-push served first" 2 (Sim.Engine.Event_queue.top_seq q);
  Sim.Engine.Event_queue.drop q;
  Sim.Engine.Event_queue.drop q;
  Alcotest.(check bool) "drained" true (Sim.Engine.Event_queue.is_empty q)

(* The engine's run-ahead and handoff peek top_time between dispatches;
   interleaved peeks at boundary-like equal times must not reorder
   anything. *)
let peek_stability_across_boundary () =
  let q = Sim.Engine.Event_queue.create () in
  List.iteri
    (fun i t -> Sim.Engine.Event_queue.push q ~time:t ~seq:i ~code:i)
    [ 10; 10; 2_000; 40_000; 40_000; 5_000_000 ];
  let expected = [ (10, 0); (10, 1); (2_000, 2); (40_000, 3); (40_000, 4); (5_000_000, 5) ] in
  List.iter
    (fun (t, s) ->
      for _ = 1 to 3 do
        check_int "peek time stable" t (Sim.Engine.Event_queue.top_time q)
      done;
      check_int "seq" s (Sim.Engine.Event_queue.top_seq q);
      Sim.Engine.Event_queue.drop q)
    expected;
  check_int "empty" 0 (Sim.Engine.Event_queue.length q)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    qt differential_random;
    qt replace_top_random;
    Alcotest.test_case "simultaneous events pop FIFO" `Quick simultaneous_fifo;
    Alcotest.test_case "far-future events pop in order" `Quick far_future_order;
    Alcotest.test_case "pushes behind last pop go first" `Quick behind_last_pop_served_first;
    Alcotest.test_case "drain then re-push keeps order" `Quick drain_then_repush;
    Alcotest.test_case "peeks stable at pause boundaries" `Quick peek_stability_across_boundary;
  ]
