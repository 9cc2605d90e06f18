(* Tests for the native domains-based heartbeat runtime. *)

module Hb_par = Hb_parallel.Hb_par

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let for_covers_all_indices () =
  Hb_par.with_pool ~heartbeat_us:50.0 ~num_domains:2 (fun pool ->
      let n = 200_000 in
      let hits = Array.make n 0 in
      Hb_par.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      let bad = ref 0 in
      Array.iter (fun h -> if h <> 1 then incr bad) hits;
      check_int "each index exactly once" 0 !bad)

let reduce_matches_sequential () =
  Hb_par.with_pool ~heartbeat_us:50.0 ~num_domains:3 (fun pool ->
      let n = 300_000 in
      let expected = ref 0.0 in
      for i = 0 to n - 1 do
        expected := !expected +. Float.of_int (i mod 101)
      done;
      let got =
        Hb_par.parallel_reduce pool ~lo:0 ~hi:n ~init:0.0
          ~body:(fun acc i -> acc +. Float.of_int (i mod 101))
          ~combine:( +. )
      in
      Alcotest.(check (float 1e-6)) "sums equal" !expected got)

let nested_for_correct () =
  Hb_par.with_pool ~heartbeat_us:50.0 ~num_domains:2 (fun pool ->
      let rows = 300 and cols = 300 in
      let m = Array.make (rows * cols) (-1) in
      Hb_par.parallel_for pool ~lo:0 ~hi:rows (fun i ->
          Hb_par.parallel_for pool ~lo:0 ~hi:cols (fun j -> m.((i * cols) + j) <- i + j));
      let ok = ref true in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          if m.((i * cols) + j) <> i + j then ok := false
        done
      done;
      check_bool "all cells" true !ok)

let empty_and_tiny_ranges () =
  Hb_par.with_pool ~num_domains:2 (fun pool ->
      let count = ref 0 in
      Hb_par.parallel_for pool ~lo:5 ~hi:5 (fun _ -> incr count);
      check_int "empty" 0 !count;
      Hb_par.parallel_for pool ~lo:5 ~hi:6 (fun _ -> incr count);
      check_int "singleton" 1 !count;
      Alcotest.(check (float 0.0)) "empty reduce keeps init" 3.5
        (Hb_par.parallel_reduce pool ~lo:0 ~hi:0 ~init:3.5 ~body:(fun a _ -> a +. 1.0)
           ~combine:( +. )))

let single_domain_works () =
  Hb_par.with_pool ~num_domains:1 (fun pool ->
      let n = 50_000 in
      let got =
        Hb_par.parallel_reduce pool ~lo:0 ~hi:n ~init:0 ~body:(fun a i -> a + (i mod 7)) ~combine:( + )
      in
      let expected = ref 0 in
      for i = 0 to n - 1 do
        expected := !expected + (i mod 7)
      done;
      check_int "sum" !expected got)

let promotions_fire_under_load () =
  Hb_par.with_pool ~heartbeat_us:20.0 ~num_domains:2 (fun pool ->
      let acc = ref 0.0 in
      Hb_par.parallel_reduce pool ~lo:0 ~hi:2_000_000 ~init:0.0
        ~body:(fun a i -> a +. (Float.of_int i *. 1e-9))
        ~combine:( +. )
      |> fun v -> acc := v;
      check_bool "some promotions happened" true (Hb_par.promotions pool > 0);
      check_bool "result sane" true (!acc > 0.0))

let shutdown_idempotent () =
  let pool = Hb_par.create ~num_domains:2 () in
  Hb_par.parallel_for pool ~lo:0 ~hi:100 (fun _ -> ());
  Hb_par.shutdown pool;
  Hb_par.shutdown pool;
  check_bool "ok" true true

(* ------------------------- the beat layer -------------------------- *)

module Beat = Hb_parallel.Beat

let beat_of source =
  Beat.create source ~workers:1
    ~injector:(Sim.Fault_injector.inactive ~num_workers:1)
    ~watchdog_k:3 ~on_downgrade:ignore

(* Under [Wall_us] a latch reads no clock: a passed deadline is seen by
   the next leaf poll, which flags it, and the check after that takes it. *)
let beat_wall_handoff () =
  let t0 = Beat.now_ns () in
  let beat = beat_of (Wall_us 1.0) in
  while Beat.now_ns () - t0 < 20_000 do
    ()
  done;
  let latch () = Beat.consume beat 0 ~count_poll:false in
  for i = 1 to 3 do
    check_bool (Printf.sprintf "latch %d before a leaf poll" i) false (latch ())
  done;
  check_bool "leaf poll flags the beat" false (Beat.consume beat 0 ~count_poll:true);
  check_bool "next latch takes it" true (latch ());
  check_bool "flag cleared" false (latch ())

let beat_every_polls_counts_leaves () =
  let beat = beat_of (Every_polls 4) in
  for i = 1 to 10 do
    check_bool (Printf.sprintf "latch %d" i) false (Beat.consume beat 0 ~count_poll:false)
  done;
  for i = 1 to 3 do
    check_bool (Printf.sprintf "leaf poll %d" i) false (Beat.consume beat 0 ~count_poll:true)
  done;
  check_bool "fourth leaf poll" true (Beat.consume beat 0 ~count_poll:true)

let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let beat_rejects_every_polls_below_one () =
  List.iter
    (fun n -> rejects (Printf.sprintf "Every_polls %d" n) (fun () -> beat_of (Every_polls n)))
    [ 0; -3 ]

let beat_rejects_bad_wall_period () =
  List.iter
    (fun us -> rejects (Printf.sprintf "Wall_us %g" us) (fun () -> beat_of (Wall_us us)))
    [ 0.0; -5.0; Float.nan; Float.infinity ];
  rejects "Hb_par heartbeat_us 0" (fun () -> Hb_par.create ~heartbeat_us:0.0 ~num_domains:1 ())

(* --------------------- Chase-Lev deque stress ---------------------- *)

module Wd = Hb_parallel.Ws_deque

let ws_deque_sequential_laws () =
  let d = Wd.create () in
  for i = 0 to 99 do
    Wd.push d i
  done;
  check_int "size" 100 (Wd.size d);
  Alcotest.(check (option int)) "pop newest" (Some 99) (Wd.pop d);
  Alcotest.(check (option int)) "steal oldest" (Some 0) (Wd.steal d);
  let d2 = Wd.create () in
  Alcotest.(check (option int)) "empty pop" None (Wd.pop d2);
  Alcotest.(check (option int)) "empty steal" None (Wd.steal d2);
  (* growth across the initial 64-slot buffer *)
  let d3 = Wd.create () in
  for i = 0 to 999 do
    Wd.push d3 i
  done;
  let seen = ref 0 in
  let rec drain () =
    match Wd.steal d3 with
    | Some _ ->
        incr seen;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "all stolen after growth" 1000 !seen

let ws_deque_concurrent_exactly_once () =
  (* One owner pushing/popping, two thieves stealing: every element must be
     consumed exactly once across all parties. *)
  let d = Wd.create () in
  let n = 100_000 in
  let consumed = Array.make n (Atomic.make 0) in
  for i = 0 to n - 1 do
    consumed.(i) <- Atomic.make 0
  done;
  let stop = Atomic.make false in
  let thief () =
    let got = ref 0 in
    while not (Atomic.get stop) do
      match Wd.steal d with
      | Some i ->
          Atomic.incr consumed.(i);
          incr got
      | None -> Domain.cpu_relax ()
    done;
    !got
  in
  let t1 = Domain.spawn thief and t2 = Domain.spawn thief in
  let owner_got = ref 0 in
  for i = 0 to n - 1 do
    Wd.push d i;
    if i land 3 = 0 then
      match Wd.pop d with
      | Some j ->
          Atomic.incr consumed.(j);
          incr owner_got
      | None -> ()
  done;
  let rec drain () =
    match Wd.pop d with
    | Some j ->
        Atomic.incr consumed.(j);
        incr owner_got;
        drain ()
    | None -> ()
  in
  drain ();
  (* let thieves finish any in-flight steal, then stop them *)
  Atomic.set stop true;
  let g1 = Domain.join t1 and g2 = Domain.join t2 in
  check_int "every element exactly once" n (!owner_got + g1 + g2);
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "element %d once" i) 1 (Atomic.get c))
    consumed

let suite =
  [
    Alcotest.test_case "parallel_for covers all indices" `Quick for_covers_all_indices;
    Alcotest.test_case "parallel_reduce equals sequential" `Quick reduce_matches_sequential;
    Alcotest.test_case "nested parallel_for" `Quick nested_for_correct;
    Alcotest.test_case "empty and tiny ranges" `Quick empty_and_tiny_ranges;
    Alcotest.test_case "single domain" `Quick single_domain_works;
    Alcotest.test_case "promotions under load" `Quick promotions_fire_under_load;
    Alcotest.test_case "shutdown idempotent" `Quick shutdown_idempotent;
    Alcotest.test_case "beat: wall-clock hand-off" `Quick beat_wall_handoff;
    Alcotest.test_case "beat: every-polls counts leaf polls" `Quick beat_every_polls_counts_leaves;
    Alcotest.test_case "beat: rejects Every_polls below 1" `Quick
      beat_rejects_every_polls_below_one;
    Alcotest.test_case "beat: rejects a bad wall period" `Quick beat_rejects_bad_wall_period;
    Alcotest.test_case "ws-deque: sequential laws" `Quick ws_deque_sequential_laws;
    Alcotest.test_case "ws-deque: concurrent exactly-once" `Slow ws_deque_concurrent_exactly_once;
  ]
