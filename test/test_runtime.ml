(* Tests for the heartbeat runtime: adaptive chunking, executor correctness
   against the sequential reference (including a qcheck sweep over random
   loop nests), promotion semantics, mechanisms, DNF, determinism. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------ adaptive chunking ----------------------- *)

let ac_initial () =
  let ac = Sched.Adaptive_chunking.create ~target_polls:8 ~window:4 () in
  check_int "starts at 1" 1 (Sched.Adaptive_chunking.chunk_size ac)

let ac_grows_when_polling_too_much () =
  let ac = Sched.Adaptive_chunking.create ~target_polls:8 ~window:2 () in
  for _ = 1 to 80 do
    Sched.Adaptive_chunking.on_poll ac
  done;
  Alcotest.(check (option int)) "window open" None (Sched.Adaptive_chunking.on_heartbeat ac);
  for _ = 1 to 96 do
    Sched.Adaptive_chunking.on_poll ac
  done;
  (* min(80, 96) / 8 = 10 -> chunk 1 * 10 *)
  Alcotest.(check (option int)) "rescaled" (Some 10) (Sched.Adaptive_chunking.on_heartbeat ac)

let ac_shrinks_when_polling_too_little () =
  let ac = Sched.Adaptive_chunking.create ~initial_chunk:100 ~target_polls:8 ~window:1 () in
  for _ = 1 to 2 do
    Sched.Adaptive_chunking.on_poll ac
  done;
  (* 2/8 * 100 = 25 *)
  Alcotest.(check (option int)) "shrunk" (Some 25) (Sched.Adaptive_chunking.on_heartbeat ac)

let ac_never_below_one () =
  let ac = Sched.Adaptive_chunking.create ~initial_chunk:2 ~target_polls:8 ~window:1 () in
  ignore (Sched.Adaptive_chunking.on_heartbeat ac);
  check_int "floor" 1 (Sched.Adaptive_chunking.chunk_size ac)

let ac_rejects_bad_params () =
  check_bool "target" true
    (try
       ignore (Sched.Adaptive_chunking.create ~target_polls:0 ~window:1 ());
       false
     with Invalid_argument _ -> true);
  check_bool "window" true
    (try
       ignore (Sched.Adaptive_chunking.create ~target_polls:1 ~window:0 ());
       false
     with Invalid_argument _ -> true)

let ac_invariants =
  QCheck.Test.make ~name:"AC chunk always >= 1 and window resets" ~count:300
    QCheck.(triple (int_range 1 20) (int_range 1 6) (list (int_range 0 200)))
    (fun (target, window, beats) ->
      let ac = Sched.Adaptive_chunking.create ~target_polls:target ~window () in
      List.for_all
        (fun polls ->
          for _ = 1 to polls do
            Sched.Adaptive_chunking.on_poll ac
          done;
          ignore (Sched.Adaptive_chunking.on_heartbeat ac);
          Sched.Adaptive_chunking.chunk_size ac >= 1
          && Sched.Adaptive_chunking.intervals_logged ac < window)
        beats)

(* The window as a list of closed intervals' poll counts, newest first,
   and the update rule over its minimum. A step is a heartbeat after some
   polls, through [on_heartbeat_full] when [full] is set, which also
   shows the old chunk and the minimum, else through [on_heartbeat]. *)
let ac_list_model ~initial ~target ~window steps =
  let chunk = ref (Int.max 1 initial) and log = ref [] in
  List.map
    (fun (polls, full) ->
      log := polls :: !log;
      let decision =
        if List.length !log >= window then begin
          let old_chunk = !chunk and min_polls = List.fold_left Int.min max_int !log in
          log := [];
          let ratio = Float.of_int min_polls /. Float.of_int target in
          chunk := Int.max 1 (int_of_float (Float.round (Float.of_int !chunk *. ratio)));
          Some (if full then (old_chunk, !chunk, min_polls) else (-1, !chunk, -1))
        end
        else None
      in
      (decision, !chunk, List.length !log))
    steps

let ac_matches_list_model =
  QCheck.Test.make ~name:"AC matches the list-window model" ~count:500
    QCheck.(
      quad (int_range 1 300) (int_range 1 20) (int_range 1 6)
        (list (pair (oneof [ int_range 0 3; int_range 0 200 ]) bool)))
    (fun (initial, target, window, steps) ->
      let module A = Sched.Adaptive_chunking in
      let ac = A.create ~initial_chunk:initial ~target_polls:target ~window () in
      let step (polls, full) =
        for _ = 1 to polls do
          A.on_poll ac
        done;
        let decision =
          if full then
            Option.map (fun d -> A.(d.old_chunk, d.new_chunk, d.min_polls)) (A.on_heartbeat_full ac)
          else Option.map (fun c -> (-1, c, -1)) (A.on_heartbeat ac)
        in
        (decision, A.chunk_size ac, A.intervals_logged ac)
      in
      List.map step steps = ac_list_model ~initial ~target ~window steps)

(* ------------------------- test programs -------------------------- *)

type env = { rows : int; sizes : int array; base : int array; out : float array; mutable total : float }

(* spmv-shaped irregular nest with an inner reduction and tail work. *)
let make_irregular ~rows ~max_size ~seed =
  let rng = Sim.Sim_rng.create seed in
  let sizes = Array.init rows (fun _ -> Sim.Sim_rng.int rng max_size) in
  let base = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    base.(i + 1) <- base.(i) + sizes.(i)
  done;
  let inner =
    Ir.Nest.loop ~name:"inner"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~bounds:(fun e (ctxs : Ir.Ctx.set) ->
        let i = ctxs.(0).Ir.Ctx.lo in
        (e.base.(i), e.base.(i + 1)))
      [
        Ir.Nest.stmt ~name:"acc" (fun _ ctxs j ->
            let l = ctxs.(1).Ir.Ctx.locals in
            l.Ir.Locals.floats.(0) <- l.Ir.Locals.floats.(0) +. (Float.of_int (j mod 13) /. 13.0);
            9);
      ]
  in
  let root =
    Ir.Nest.loop ~name:"outer"
      ~bounds:(fun e _ -> (0, e.rows))
      [
        Ir.Nest.Nested inner;
        Ir.Nest.stmt ~name:"store" (fun e ctxs i ->
            e.out.(i) <- ctxs.(1).Ir.Ctx.locals.Ir.Locals.floats.(0) +. Float.of_int i;
            7);
      ]
  in
  Ir.Program.v ~name:"test-irregular"
    ~make_env:(fun () -> { rows; sizes; base; out = Array.make rows 0.0; total = 0.0 })
    ~nests:[ root ]
    ~driver:(fun _ cpu -> cpu.Ir.Program.exec root)
    ~fingerprint:(fun e ->
      Array.to_seq e.out |> Seq.fold_lefti (fun acc i v -> acc +. (v *. Float.of_int ((i mod 7) + 1))) 0.0)
    ()

let fingerprints_match ?(tol = 1e-9) a b =
  Sim.Run_result.fingerprints_close ~tol a b

let run_hbc ?(cfg = Hbc_core.Rt_config.default) ?request p =
  Sched_run.run ?request (Sched_run.Hbc cfg) p

(* --------------------- executor vs sequential --------------------- *)

let hbc_matches_seq () =
  let p = make_irregular ~rows:4_000 ~max_size:40 ~seed:1 in
  let seq = Baselines.Serial_exec.run_program p in
  let hbc = run_hbc p in
  check_bool "fingerprint" true (fingerprints_match seq hbc);
  check_int "same work" seq.Sim.Run_result.work_cycles hbc.Sim.Run_result.work_cycles;
  check_bool "faster than sequential" true
    (hbc.Sim.Run_result.makespan < seq.Sim.Run_result.work_cycles)

let hbc_single_worker_accounting () =
  (* With one worker and promotions off, makespan = work + charged overheads. *)
  let p = make_irregular ~rows:1_000 ~max_size:20 ~seed:2 in
  let cfg = { Hbc_core.Rt_config.default with workers = 1; promotion = false } in
  let r = run_hbc ~cfg p in
  check_int "makespan = work + overhead"
    (r.Sim.Run_result.work_cycles + r.Sim.Run_result.metrics.Sim.Metrics.overhead_cycles)
    r.Sim.Run_result.makespan;
  check_int "no promotions" 0 r.Sim.Run_result.metrics.Sim.Metrics.promotions

let hbc_deterministic () =
  let p = make_irregular ~rows:3_000 ~max_size:30 ~seed:3 in
  let a = run_hbc p and b = run_hbc p in
  check_int "same makespan" a.Sim.Run_result.makespan b.Sim.Run_result.makespan;
  check_int "same promotions" a.Sim.Run_result.metrics.Sim.Metrics.promotions
    b.Sim.Run_result.metrics.Sim.Metrics.promotions;
  Alcotest.(check (float 0.0)) "same fingerprint" a.Sim.Run_result.fingerprint
    b.Sim.Run_result.fingerprint

let hbc_seed_changes_schedule_not_result () =
  let p = make_irregular ~rows:3_000 ~max_size:30 ~seed:4 in
  let a = run_hbc ~cfg:{ Hbc_core.Rt_config.default with seed = 1 } p in
  let b = run_hbc ~cfg:{ Hbc_core.Rt_config.default with seed = 99 } p in
  check_bool "results agree" true (fingerprints_match a b)

let all_mechanisms_correct () =
  let p = make_irregular ~rows:3_000 ~max_size:30 ~seed:5 in
  let seq = Baselines.Serial_exec.run_program p in
  List.iter
    (fun (name, cfg) ->
      let r = run_hbc ~cfg p in
      check_bool name true (fingerprints_match seq r))
    [
      ("polling", Hbc_core.Rt_config.default);
      ("kernel module", Hbc_core.Rt_config.hbc_kernel_module ~chunk:64);
      ("ping thread", Hbc_core.Rt_config.hbc_ping_thread ~chunk:64);
      ("tpal", Hbc_core.Rt_config.tpal ~chunk:32);
      ("no chunking", { Hbc_core.Rt_config.default with chunk = Hbc_core.Compiled.No_chunking });
      ("static 7", { Hbc_core.Rt_config.default with chunk = Hbc_core.Compiled.Static 7 });
      ("leaves-only pairs would also work", Hbc_core.Rt_config.default);
    ]

let worker_counts_correct () =
  let p = make_irregular ~rows:2_000 ~max_size:25 ~seed:6 in
  let seq = Baselines.Serial_exec.run_program p in
  List.iter
    (fun w ->
      let r = run_hbc ~cfg:{ Hbc_core.Rt_config.default with workers = w } p in
      check_bool (Printf.sprintf "%d workers" w) true (fingerprints_match seq r))
    [ 1; 2; 3; 7; 16; 64; 128 ]

let promotions_actually_happen () =
  let p = make_irregular ~rows:6_000 ~max_size:40 ~seed:7 in
  let r = run_hbc p in
  let m = r.Sim.Run_result.metrics in
  check_bool "promotions" true (m.Sim.Metrics.promotions > 0);
  check_bool "leftovers ran" true (m.Sim.Metrics.leftover_tasks_run > 0);
  check_bool "steals" true (m.Sim.Metrics.steals > 0)

let inner_loop_promoted_when_outer_exhausted () =
  (* One giant inner loop (arrowhead row 0): the only latent parallelism
     after the outer loop is consumed sits in the inner loop, so promotions
     must reach nesting level 1. *)
  let rows = 40 in
  let sizes = Array.make rows 30_000 in
  let base = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    base.(i + 1) <- base.(i) + sizes.(i)
  done;
  let inner =
    Ir.Nest.loop ~name:"giant_inner"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~bounds:(fun (e : env) (ctxs : Ir.Ctx.set) ->
        let i = ctxs.(0).Ir.Ctx.lo in
        (e.base.(i), e.base.(i + 1)))
      [
        Ir.Nest.stmt ~name:"acc" (fun _ ctxs j ->
            let l = ctxs.(1).Ir.Ctx.locals in
            l.Ir.Locals.floats.(0) <- l.Ir.Locals.floats.(0) +. Float.of_int (j land 7);
            9);
      ]
  in
  let root =
    Ir.Nest.loop ~name:"narrow_outer"
      ~bounds:(fun (e : env) _ -> (0, e.rows))
      [
        Ir.Nest.Nested inner;
        Ir.Nest.stmt ~name:"store" (fun e ctxs i ->
            e.out.(i) <- ctxs.(1).Ir.Ctx.locals.Ir.Locals.floats.(0);
            7);
      ]
  in
  let p =
    Ir.Program.v ~name:"giant-rows"
      ~make_env:(fun () -> { rows; sizes; base; out = Array.make rows 0.0; total = 0.0 })
      ~nests:[ root ]
      ~driver:(fun _ cpu -> cpu.Ir.Program.exec root)
      ~fingerprint:(fun e -> Array.fold_left ( +. ) 0.0 e.out)
      ()
  in
  let seq = Baselines.Serial_exec.run_program p in
  let r = run_hbc p in
  check_bool "correct" true (fingerprints_match seq r);
  check_bool "inner loop promoted" true
    (r.Sim.Run_result.metrics.Sim.Metrics.promotions_by_level.(1) > 0)

let dnf_cap_enforced () =
  let p = make_irregular ~rows:3_000 ~max_size:30 ~seed:8 in
  let r = run_hbc ~request:(Hbc_core.Run_request.make ~max_cycles:1_000 ()) p in
  check_bool "flagged dnf" true r.Sim.Run_result.dnf

let heartbeats_detected_polling () =
  let p = make_irregular ~rows:6_000 ~max_size:40 ~seed:9 in
  let r = run_hbc p in
  let m = r.Sim.Run_result.metrics in
  check_bool "beats generated" true (m.Sim.Metrics.heartbeats_generated > 0);
  check_bool "detection above 90%" true (Sim.Metrics.detection_rate m > 90.0)

let tpal_skips_chunk_transfer () =
  let p = make_irregular ~rows:2_000 ~max_size:12 ~seed:10 in
  let hbc =
    run_hbc ~cfg:{ Hbc_core.Rt_config.default with workers = 1; promotion = false } p
  in
  let tpal =
    run_hbc
      ~cfg:{ (Hbc_core.Rt_config.tpal ~chunk:64) with workers = 1; promotion = false }
      p
  in
  check_bool "hbc pays transfer" true
    (Sim.Metrics.overhead_of hbc.Sim.Run_result.metrics Sim.Metrics.Chunk_transfer > 0);
  check_int "tpal does not" 0
    (Sim.Metrics.overhead_of tpal.Sim.Run_result.metrics Sim.Metrics.Chunk_transfer)

let interrupt_mode_has_no_polls () =
  let p = make_irregular ~rows:2_000 ~max_size:12 ~seed:11 in
  let r = run_hbc ~cfg:(Hbc_core.Rt_config.hbc_kernel_module ~chunk:64) p in
  check_int "polls" 0 r.Sim.Run_result.metrics.Sim.Metrics.polls

(* 3-level nest exercising multi-level leftovers and deep promotions. *)
type env3 = { n1 : int; n2 : int; n3 : int; out : float array }

let make_deep ~n1 ~n2 ~n3 =
  let leaf =
    Ir.Nest.loop ~name:"leaf"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~bounds:(fun e _ -> (0, e.n3))
      [
        Ir.Nest.stmt ~name:"w" (fun _ ctxs k ->
            let l = ctxs.(2).Ir.Ctx.locals in
            l.Ir.Locals.floats.(0) <- l.Ir.Locals.floats.(0) +. Float.of_int ((k * 3 mod 11) + 1);
            8);
      ]
  in
  let mid =
    Ir.Nest.loop ~name:"mid"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~bounds:(fun e _ -> (0, e.n2))
      [
        Ir.Nest.Nested leaf;
        Ir.Nest.stmt ~name:"fold" (fun _ ctxs _ ->
            let m = ctxs.(1).Ir.Ctx.locals and l = ctxs.(2).Ir.Ctx.locals in
            m.Ir.Locals.floats.(0) <- m.Ir.Locals.floats.(0) +. l.Ir.Locals.floats.(0);
            4);
      ]
  in
  let root =
    Ir.Nest.loop ~name:"top"
      ~bounds:(fun e _ -> (0, e.n1))
      [
        Ir.Nest.Nested mid;
        Ir.Nest.stmt ~name:"store" (fun e ctxs i ->
            e.out.(i) <- ctxs.(1).Ir.Ctx.locals.Ir.Locals.floats.(0);
            5);
      ]
  in
  Ir.Program.v ~name:"deep3"
    ~make_env:(fun () -> { n1; n2; n3; out = Array.make n1 0.0 })
    ~nests:[ root ]
    ~driver:(fun _ cpu -> cpu.Ir.Program.exec root)
    ~fingerprint:(fun e -> Array.fold_left ( +. ) 0.0 e.out)
    ()

let deep_nest_correct () =
  let p = make_deep ~n1:60 ~n2:40 ~n3:50 in
  let seq = Baselines.Serial_exec.run_program p in
  let hbc = run_hbc p in
  check_bool "fingerprints" true (fingerprints_match seq hbc)

let deep_nest_promotes_all_levels () =
  let p = make_deep ~n1:80 ~n2:60 ~n3:60 in
  let r = run_hbc p in
  let m = r.Sim.Run_result.metrics in
  check_bool "level 0" true (m.Sim.Metrics.promotions_by_level.(0) > 0)

(* ------------------ qcheck: random nests vs serial ----------------- *)

let random_nest_correct =
  QCheck.Test.make ~name:"random irregular nests: HBC = sequential" ~count:25
    QCheck.(triple (int_range 50 800) (int_range 1 60) (int_range 0 1000))
    (fun (rows, max_size, seed) ->
      let p = make_irregular ~rows ~max_size:(Stdlib.max 1 max_size) ~seed in
      let seq = Baselines.Serial_exec.run_program p in
      let hbc = run_hbc p in
      let tpal = run_hbc ~cfg:(Hbc_core.Rt_config.tpal ~chunk:16) p in
      fingerprints_match seq hbc && fingerprints_match seq tpal)

(* Random 3-level nests with multiple children per level, empty inner
   ranges, reductions and tail statements: stresses every leftover shape
   (including promotions inside leftover tasks that skip forward past the
   re-split ancestor). *)
type genv = { widths : int array; cells : float array; out : float array }

let make_random_tree ~seed =
  let rng = Sim.Sim_rng.create seed in
  let n1 = 20 + Sim.Sim_rng.int rng 60 in
  let n_children = 1 + Sim.Sim_rng.int rng 2 in
  let widths = Array.init (n1 * 4) (fun _ -> Sim.Sim_rng.int rng 25) in
  (* Simpler concrete shape with known ordinals: root(0) > mid(1) > leaf(2),
     plus a second root child leaf2(3). *)
  let leaf =
    Ir.Nest.loop ~name:"rleaf"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~bounds:(fun (e : genv) (ctxs : Ir.Ctx.set) ->
        let j = ctxs.(1).Ir.Ctx.lo in
        (0, e.widths.(((j * 4) + 2) mod Array.length e.widths) mod 17))
      [
        Ir.Nest.stmt ~name:"w" (fun (e : genv) ctxs k ->
            let l = ctxs.(2).Ir.Ctx.locals in
            l.Ir.Locals.floats.(0) <-
              l.Ir.Locals.floats.(0) +. e.cells.((k * 13) mod Array.length e.cells);
            6);
      ]
  in
  let mid =
    Ir.Nest.loop ~name:"rmid"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~bounds:(fun (e : genv) (ctxs : Ir.Ctx.set) ->
        let i = ctxs.(0).Ir.Ctx.lo in
        (0, e.widths.((i * 4) + 1)))
      [
        Ir.Nest.Nested leaf;
        Ir.Nest.stmt ~name:"fold" (fun _ ctxs _ ->
            let m = ctxs.(1).Ir.Ctx.locals and l = ctxs.(2).Ir.Ctx.locals in
            m.Ir.Locals.floats.(0) <- m.Ir.Locals.floats.(0) +. l.Ir.Locals.floats.(0);
            3);
      ]
  in
  let leaf2 =
    Ir.Nest.loop ~name:"rleaf2"
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~reduction:(fun d s -> d.Ir.Locals.floats.(0) <- d.Ir.Locals.floats.(0) +. s.Ir.Locals.floats.(0))
      ~bounds:(fun (e : genv) (ctxs : Ir.Ctx.set) ->
        let i = ctxs.(0).Ir.Ctx.lo in
        (0, e.widths.(((i * 4) + 3) mod Array.length e.widths) mod 9))
      [
        Ir.Nest.stmt ~name:"w2" (fun (e : genv) ctxs k ->
            let l = ctxs.(3).Ir.Ctx.locals in
            l.Ir.Locals.floats.(0) <-
              l.Ir.Locals.floats.(0) +. e.cells.((k * 7) mod Array.length e.cells);
            5);
      ]
  in
  let body =
    if n_children = 1 then
      [
        Ir.Nest.Nested mid;
        Ir.Nest.stmt ~name:"store" (fun (e : genv) ctxs i ->
            e.out.(i) <- ctxs.(1).Ir.Ctx.locals.Ir.Locals.floats.(0);
            4);
      ]
    else
      [
        Ir.Nest.Nested mid;
        Ir.Nest.stmt ~name:"store1" (fun (e : genv) ctxs i ->
            e.out.(i) <- ctxs.(1).Ir.Ctx.locals.Ir.Locals.floats.(0);
            4);
        Ir.Nest.Nested leaf2;
        Ir.Nest.stmt ~name:"store2" (fun (e : genv) ctxs i ->
            e.out.(i) <- e.out.(i) +. (2.0 *. ctxs.(3).Ir.Ctx.locals.Ir.Locals.floats.(0));
            4);
      ]
  in
  let root = Ir.Nest.loop ~name:"rtop" ~bounds:(fun (e : genv) _ -> (0, Array.length e.out)) body in
  Ir.Program.v ~name:"random-tree"
    ~make_env:(fun () ->
      {
        widths;
        cells = Array.init 64 (fun i -> Float.of_int ((i * 31 mod 37) + 1) /. 37.0);
        out = Array.make n1 0.0;
      })
    ~nests:[ root ]
    ~driver:(fun _ cpu -> cpu.Ir.Program.exec root)
    ~fingerprint:(fun e ->
      Array.to_seq e.out
      |> Seq.fold_lefti (fun acc i v -> acc +. (v *. Float.of_int ((i mod 5) + 1))) 0.0)
    ()

let force_promotion_differential =
  (* The maximal-promotion schedule: every PRPPT promotes. Exercises every
     loop-slice and leftover path far more densely than real heartbeats. *)
  QCheck.Test.make ~name:"force-promotion fuzzing: maximal schedule = sequential" ~count:20
    QCheck.(pair (int_range 20 200) (int_range 0 2000))
    (fun (rows, seed) ->
      let p = make_irregular ~rows ~max_size:12 ~seed in
      let seq = Baselines.Serial_exec.run_program p in
      let forced =
        run_hbc
          ~cfg:
            {
              Hbc_core.Rt_config.default with
              workers = 4;
              force_promotion = true;
              chunk = Hbc_core.Compiled.Static 2;
            }
          p
      in
      fingerprints_match seq forced
      && forced.Sim.Run_result.metrics.Sim.Metrics.promotions > 0)

let force_promotion_deep () =
  let p = make_deep ~n1:12 ~n2:8 ~n3:10 in
  let seq = Baselines.Serial_exec.run_program p in
  let forced =
    run_hbc
      ~cfg:
        {
          Hbc_core.Rt_config.default with
          workers = 4;
          force_promotion = true;
          chunk = Hbc_core.Compiled.Static 2;
        }
      p
  in
  check_bool "3-level nest correct under maximal promotion" true (fingerprints_match seq forced);
  check_bool "leftovers exercised" true
    (forced.Sim.Run_result.metrics.Sim.Metrics.leftover_tasks_run > 0)

let random_tree_correct =
  QCheck.Test.make ~name:"random 3-level trees: all executors agree" ~count:30
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let p = make_random_tree ~seed in
      let seq = Baselines.Serial_exec.run_program p in
      let hbc =
        run_hbc ~cfg:{ Hbc_core.Rt_config.default with workers = 8; chunk = Hbc_core.Compiled.Static 3 } p
      in
      let tpal = run_hbc ~cfg:{ (Hbc_core.Rt_config.tpal ~chunk:3) with workers = 8 } p in
      let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ~workers:8 ()) p in
      fingerprints_match seq hbc && fingerprints_match seq tpal && fingerprints_match seq omp)

(* Regression: under innermost-first promotion on a >=3-level nest, leftover
   tasks hold frozen snapshots of loops ABOVE their split point that can
   still show remaining iterations; without the task-ownership boundary the
   leftover would re-split work the original task still owns — exponential
   duplication (this hung before the fix) and wrong results. *)
let innermost_ownership_regression () =
  let p = make_deep ~n1:40 ~n2:24 ~n3:30 in
  let seq = Baselines.Serial_exec.run_program p in
  let inner =
    run_hbc
      ~cfg:
        { Hbc_core.Rt_config.default with policy = Hbc_core.Rt_config.Innermost_first; workers = 16 }
      p
  in
  check_bool "correct" true (fingerprints_match seq inner);
  check_int "work executed exactly once" seq.Sim.Run_result.work_cycles
    inner.Sim.Run_result.work_cycles;
  (* and under maximal promotion pressure too *)
  let forced =
    run_hbc
      ~cfg:
        {
          Hbc_core.Rt_config.default with
          policy = Hbc_core.Rt_config.Innermost_first;
          force_promotion = true;
          chunk = Hbc_core.Compiled.Static 2;
          workers = 8;
        }
      p
  in
  check_bool "correct under forced promotion" true (fingerprints_match seq forced);
  check_int "no duplicated work under forced promotion" seq.Sim.Run_result.work_cycles
    forced.Sim.Run_result.work_cycles

(* A DOALL outer loop containing a sequential (non-DOALL) inner loop: the
   executor must run the pruned loop inline, never promote it, and still
   parallelize the outer loop. *)
type senv = { width : int; out2 : float array }

let make_with_sequential_inner ~rows ~width =
  let seq_inner =
    Ir.Nest.loop ~name:"seq_inner" ~doall:false
      ~locals_spec:{ Ir.Locals.nfloats = 1; nints = 0 }
      ~init:(fun _ (l : Ir.Locals.t) -> l.Ir.Locals.floats.(0) <- 0.0)
      ~bounds:(fun (e : senv) _ -> (0, e.width))
      [
        Ir.Nest.stmt ~name:"acc" (fun _ ctxs k ->
            let l = ctxs.(1).Ir.Ctx.locals in
            l.Ir.Locals.floats.(0) <- l.Ir.Locals.floats.(0) +. Float.of_int ((k * 7 mod 11) + 1);
            6);
      ]
  in
  let root =
    Ir.Nest.loop ~name:"outer_seqinner"
      ~bounds:(fun (e : senv) _ -> (0, Array.length e.out2))
      [
        Ir.Nest.Nested seq_inner;
        Ir.Nest.stmt ~name:"store" (fun e ctxs i ->
            e.out2.(i) <- ctxs.(1).Ir.Ctx.locals.Ir.Locals.floats.(0) *. Float.of_int (i + 1);
            5);
      ]
  in
  Ir.Program.v ~name:"seq-inner"
    ~make_env:(fun () -> { width; out2 = Array.make rows 0.0 })
    ~nests:[ root ]
    ~driver:(fun _ cpu -> cpu.Ir.Program.exec root)
    ~fingerprint:(fun e -> Array.fold_left ( +. ) 0.0 e.out2)
    ()

let sequential_inner_loop_correct () =
  let p = make_with_sequential_inner ~rows:12_000 ~width:25 in
  let seq = Baselines.Serial_exec.run_program p in
  let hbc = run_hbc p in
  check_bool "correct" true (fingerprints_match seq hbc);
  check_bool "outer still parallelized" true
    (hbc.Sim.Run_result.makespan < seq.Sim.Run_result.work_cycles / 3);
  (* all promotions at level 0: the pruned loop is invisible to the tree *)
  let m = hbc.Sim.Run_result.metrics in
  check_int "no level-1 promotions" 0 m.Sim.Metrics.promotions_by_level.(1);
  let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) p in
  check_bool "omp too" true (fingerprints_match seq omp)

let overhead_attribution_consistent () =
  (* per-kind attributions sum exactly to the overhead total on every
     simulated front end, so a charge that bumps the total without a kind
     fails here *)
  let sums_to_total label (m : Sim.Metrics.t) =
    let sum = List.fold_left (fun acc (_, v) -> acc + v) 0 (Sim.Metrics.attribution m) in
    check_int (label ^ ": attribution sums to total") m.Sim.Metrics.overhead_cycles sum
  in
  let p = make_irregular ~rows:3_000 ~max_size:25 ~seed:77 in
  let r = run_hbc p in
  let m = r.Sim.Run_result.metrics in
  sums_to_total "hbc" m;
  check_bool "work + overhead >= makespan budget sanity" true
    (m.Sim.Metrics.work_cycles + m.Sim.Metrics.overhead_cycles
    >= r.Sim.Run_result.makespan);
  let (Ir.Program.Any spmv) =
    (Workloads.Registry.find "spmv-powerlaw").Workloads.Registry.make 0.02
  in
  let omp = Baselines.Openmp.run_program (Baselines.Openmp.dynamic ()) spmv in
  check_bool "omp queues on the bus" true
    (Sim.Metrics.overhead_of omp.Sim.Run_result.metrics Sim.Metrics.Membus > 0);
  sums_to_total "omp" omp.Sim.Run_result.metrics;
  let rec fib ctx n =
    if n < 2 then Hbc_core.Fork_join.advance ctx 25
    else begin
      ignore (Hbc_core.Fork_join.fork2 ctx (fun c -> fib c (n - 1)) (fun c -> fib c (n - 2)));
      Hbc_core.Fork_join.advance ctx 12
    end
  in
  let fj =
    Hbc_core.Fork_join.run
      ~cfg:{ Hbc_core.Rt_config.default with workers = 8 }
      (fun ctx -> fib ctx 18)
  in
  check_bool "fork-join promotes" true (fj.Hbc_core.Fork_join.metrics.Sim.Metrics.promotions > 0);
  sums_to_total "fork-join" fj.Hbc_core.Fork_join.metrics

let hbc_parallelizes_omp_serial_nests () =
  (* kmeans' update nest (an omp_serial_nests entry) is serial under OpenMP
     but an ordinary promotable nest under HBC. The array-reduction nest
     alone must parallelize well beyond what a serial update would allow:
     the update is ~12% of total work, so Amdahl caps a serial-update
     executor at ~8x; HBC must clear that. *)
  let p = Workloads.Kmeans.program ~scale:0.4 in
  let seq = Baselines.Serial_exec.run_program p in
  let hbc = run_hbc ~cfg:{ Hbc_core.Rt_config.default with workers = 64 } p in
  check_bool "correct" true (Sim.Run_result.fingerprints_close ~tol:1e-7 seq hbc);
  check_bool "beyond the serial-update Amdahl cap" true
    (Sim.Run_result.speedup ~baseline:seq hbc > 8.0);
  check_bool "promotions happened" true
    (hbc.Sim.Run_result.metrics.Sim.Metrics.promotions > 0)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "AC: initial chunk" `Quick ac_initial;
    Alcotest.test_case "AC: grows" `Quick ac_grows_when_polling_too_much;
    Alcotest.test_case "AC: shrinks" `Quick ac_shrinks_when_polling_too_little;
    Alcotest.test_case "AC: floor at 1" `Quick ac_never_below_one;
    Alcotest.test_case "AC: parameter validation" `Quick ac_rejects_bad_params;
    qt ac_invariants;
    qt ac_matches_list_model;
    Alcotest.test_case "executor: matches sequential" `Quick hbc_matches_seq;
    Alcotest.test_case "executor: 1-worker accounting" `Quick hbc_single_worker_accounting;
    Alcotest.test_case "executor: deterministic" `Quick hbc_deterministic;
    Alcotest.test_case "executor: seed-independent results" `Quick hbc_seed_changes_schedule_not_result;
    Alcotest.test_case "executor: all mechanisms correct" `Quick all_mechanisms_correct;
    Alcotest.test_case "executor: many worker counts" `Quick worker_counts_correct;
    Alcotest.test_case "executor: promotions happen" `Quick promotions_actually_happen;
    Alcotest.test_case "executor: inner-loop promotion" `Quick inner_loop_promoted_when_outer_exhausted;
    Alcotest.test_case "executor: DNF cap" `Quick dnf_cap_enforced;
    Alcotest.test_case "executor: heartbeat detection" `Quick heartbeats_detected_polling;
    Alcotest.test_case "executor: TPAL skips chunk transfer" `Quick tpal_skips_chunk_transfer;
    Alcotest.test_case "executor: interrupts never poll" `Quick interrupt_mode_has_no_polls;
    Alcotest.test_case "executor: sequential inner loop" `Quick sequential_inner_loop_correct;
    Alcotest.test_case "executor: overhead attribution" `Quick overhead_attribution_consistent;
    Alcotest.test_case "executor: parallelizes OpenMP-serial nests" `Quick hbc_parallelizes_omp_serial_nests;
    Alcotest.test_case "executor: 3-level nest correct" `Quick deep_nest_correct;
    Alcotest.test_case "executor: 3-level promotions" `Quick deep_nest_promotes_all_levels;
    qt random_nest_correct;
    Alcotest.test_case "regression: innermost ownership boundary" `Quick
      innermost_ownership_regression;
    qt force_promotion_differential;
    Alcotest.test_case "force-promotion: deep nest" `Quick force_promotion_deep;
    qt random_tree_correct;
  ]
