(* Preempt–resume checkpointing: pausing at an engine boundary captures a
   serializable checkpoint; resuming replays the job to the boundary with
   trace emission muted, byte-verifies the re-derived state, and continues
   to a final result byte-identical to an uninterrupted run. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let rt = { Hbc_core.Rt_config.default with workers = 8; seed = 1 }

let program () = Workloads.Spmv.powerlaw ~scale:0.02

let run ?request () = Sched_run.run ?request (Sched_run.Hbc rt) (program ())

let ck_of (r : Sim.Run_result.t) =
  match r.Sim.Run_result.termination with
  | Sim.Run_result.Paused ck -> ck
  | t -> Alcotest.failf "expected a pause, got %s" (Sim.Run_result.termination_to_string t)

let same_result tag (a : Sim.Run_result.t) (b : Sim.Run_result.t) =
  check_int (tag ^ ": makespan") a.Sim.Run_result.makespan b.Sim.Run_result.makespan;
  check_int (tag ^ ": work cycles") a.Sim.Run_result.work_cycles b.Sim.Run_result.work_cycles;
  Alcotest.(check (float 0.0))
    (tag ^ ": fingerprint")
    a.Sim.Run_result.fingerprint b.Sim.Run_result.fingerprint;
  check_int (tag ^ ": promotions") a.Sim.Run_result.metrics.Sim.Metrics.promotions
    b.Sim.Run_result.metrics.Sim.Metrics.promotions

(* ---------------- capture ---------------- *)

let pause_captures_live_state () =
  let full = run () in
  let paused = run ~request:(Hbc_core.Run_request.make ~pause_at:(full.Sim.Run_result.makespan / 2) ()) () in
  let ck = ck_of paused in
  check_int "boundary honoured" (full.Sim.Run_result.makespan / 2) ck.Sim.Checkpoint_state.at_cycle;
  check_int "first episode" 1 ck.Sim.Checkpoint_state.episode;
  check_bool "live slices remain" true (ck.Sim.Checkpoint_state.slices <> []);
  check_bool "iterations owed" true (Sim.Checkpoint_state.remaining_iterations ck > 0);
  check_bool "partial work only" true
    (ck.Sim.Checkpoint_state.work_cycles < full.Sim.Run_result.work_cycles);
  check_bool "paused is not completed" false (Sim.Run_result.completed paused);
  List.iter
    (fun (s : Sim.Checkpoint_state.slice) ->
      check_bool "slice range non-empty" true (s.Sim.Checkpoint_state.sl_lo < s.Sim.Checkpoint_state.sl_hi))
    ck.Sim.Checkpoint_state.slices

let checkpoint_codec_roundtrip () =
  let paused = run ~request:(Hbc_core.Run_request.make ~pause_at:100_000 ()) () in
  let ck = ck_of paused in
  let encoded = Sim.Checkpoint_state.to_string ck in
  (match Sim.Checkpoint_state.of_string encoded with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok ck' ->
      check_bool "structural equality" true (Sim.Checkpoint_state.equal ck ck');
      check_string "byte-stable re-encode" encoded (Sim.Checkpoint_state.to_string ck');
      check_string "digest stable" (Sim.Checkpoint_state.digest ck) (Sim.Checkpoint_state.digest ck'));
  check_bool "garbage rejected" true
    (match Sim.Checkpoint_state.of_string "{\"v\":99}" with Error _ -> true | Ok _ -> false)

(* ---------------- resume ---------------- *)

let resume_is_byte_identical () =
  let full = run () in
  let paused = run ~request:(Hbc_core.Run_request.make ~pause_at:(full.Sim.Run_result.makespan / 2) ()) () in
  let resumed = run ~request:(Hbc_core.Run_request.make ~resume_from:(ck_of paused) ()) () in
  check_bool "resumed finishes" true (Sim.Run_result.completed resumed);
  same_result "resume" full resumed

let multi_episode_resume () =
  let full = run () in
  let q = full.Sim.Run_result.makespan / 4 in
  let paused1 = run ~request:(Hbc_core.Run_request.make ~pause_at:q ()) () in
  let ck1 = ck_of paused1 in
  let paused2 =
    run ~request:(Hbc_core.Run_request.make ~resume_from:ck1 ~pause_at:(2 * q) ()) ()
  in
  let ck2 = ck_of paused2 in
  check_int "episode counts pauses" 2 ck2.Sim.Checkpoint_state.episode;
  check_bool "work grows across episodes" true
    (ck2.Sim.Checkpoint_state.work_cycles > ck1.Sim.Checkpoint_state.work_cycles);
  check_bool "regrants carry the grant history" true
    (List.length ck2.Sim.Checkpoint_state.regrants > List.length ck1.Sim.Checkpoint_state.regrants);
  let resumed = run ~request:(Hbc_core.Run_request.make ~resume_from:ck2 ()) () in
  same_result "two episodes" full resumed

let resume_divergence_detected () =
  let paused = run ~request:(Hbc_core.Run_request.make ~pause_at:100_000 ()) () in
  let ck = ck_of paused in
  let tampered = { ck with Sim.Checkpoint_state.work_cycles = ck.Sim.Checkpoint_state.work_cycles + 1 } in
  let r = run ~request:(Hbc_core.Run_request.make ~resume_from:tampered ()) () in
  match r.Sim.Run_result.termination with
  | Sim.Run_result.Guard_aborted reason ->
      check_bool "names the divergence" true
        (String.length reason >= 17 && String.sub reason 0 17 = "resume-divergence")
  | t -> Alcotest.failf "tampered checkpoint accepted: %s" (Sim.Run_result.termination_to_string t)

(* The pause gate tiles the trace: the pre-pause stream stops strictly
   before the boundary, the resumed stream starts at or after it, and
   their concatenation is exactly the uninterrupted run's stream. *)
let trace_gate_tiling () =
  let traced ?pause_at ?resume_from () =
    let sink = Obs.Trace.Sink.stream () in
    let r = run ~request:(Hbc_core.Run_request.make ~trace:sink ?pause_at ?resume_from ()) () in
    (r, List.map (fun (rec_ : Obs.Trace.record) -> (rec_.Obs.Trace.time, rec_.Obs.Trace.worker, rec_.Obs.Trace.event)) r.Sim.Run_result.trace)
  in
  let full, full_evs = traced () in
  let boundary = full.Sim.Run_result.makespan / 2 in
  let paused, pre = traced ~pause_at:boundary () in
  let _, post = traced ~resume_from:(ck_of paused) () in
  List.iter (fun (t, _, _) -> check_bool "pre-pause before boundary" true (t < boundary)) pre;
  List.iter (fun (t, _, _) -> check_bool "post-resume at/after boundary" true (t >= boundary)) post;
  check_int "episodes tile the stream" (List.length full_evs) (List.length pre + List.length post);
  check_bool "concatenation is the uninterrupted stream" true (pre @ post = full_evs)

(* A resume whose boundary lies past the run's end cannot verify the
   replay there: the run finishes, and the resume is refused. *)
let unreached_resume_boundary () =
  let full = run () in
  let ck = ck_of (run ~request:(Hbc_core.Run_request.make ~pause_at:100_000 ()) ()) in
  let beyond = { ck with Sim.Checkpoint_state.at_cycle = full.Sim.Run_result.makespan + 1 } in
  let r = run ~request:(Hbc_core.Run_request.make ~resume_from:beyond ()) () in
  let want = "resume-divergence: run finished before the boundary" in
  match r.Sim.Run_result.termination with
  | Sim.Run_result.Guard_aborted reason ->
      check_bool ("names the unreached boundary: " ^ reason) true
        (String.starts_with ~prefix:want reason)
  | t -> Alcotest.failf "unreached boundary accepted: %s" (Sim.Run_result.termination_to_string t)

(* Pauses on heartbeat ticks: the boundaries are multiples of the
   30,000-cycle interval, so under the kernel module and the ping thread a
   beat timer fires at the boundary's own cycle (polling has no timer).
   The boundary must still cut before it, and the resumed run must finish
   as the uninterrupted one does. *)
let pause_on_ticks () =
  let chunk = (Workloads.Registry.find "spmv-powerlaw").Workloads.Registry.tpal_chunk in
  let configs =
    [
      ("poll", Hbc_core.Rt_config.default);
      ("kmod", Hbc_core.Rt_config.hbc_kernel_module ~chunk);
      ("ping", Hbc_core.Rt_config.hbc_ping_thread ~chunk);
    ]
  in
  List.iter
    (fun (name, cfg) ->
      let cfg = { cfg with Hbc_core.Rt_config.workers = 8; seed = 1 } in
      check_int "tick-aligned boundaries" 30_000
        cfg.Hbc_core.Rt_config.cost.Sim.Cost_model.heartbeat_interval;
      let traced ?pause_at ?resume_from () =
        let sink = Obs.Trace.Sink.stream () in
        let r =
          Sched_run.run
            ~request:(Hbc_core.Run_request.make ~trace:sink ?pause_at ?resume_from ())
            (Sched_run.Hbc cfg) (program ())
        in
        ( r,
          List.map
            (fun (e : Obs.Trace.record) -> (e.Obs.Trace.time, e.Obs.Trace.worker, e.Obs.Trace.event))
            r.Sim.Run_result.trace )
      in
      let full, full_evs = traced () in
      List.iter
        (fun boundary ->
          if boundary <= full.Sim.Run_result.makespan then begin
            let tag = Printf.sprintf "%s@%d" name boundary in
            let paused, pre = traced ~pause_at:boundary () in
            let resumed, post = traced ~resume_from:(ck_of paused) () in
            same_result tag full resumed;
            check_bool (name ^ ": pre before boundary") true
              (List.for_all (fun (t, _, _) -> t < boundary) pre);
            check_bool (name ^ ": pre @ post is the full stream") true (pre @ post = full_evs)
          end)
        [ 30_000; 60_000; 90_000 ])
    configs

let suite =
  [
    Alcotest.test_case "pause captures live state" `Quick pause_captures_live_state;
    Alcotest.test_case "checkpoint codec round-trips" `Quick checkpoint_codec_roundtrip;
    Alcotest.test_case "resume byte-identical" `Quick resume_is_byte_identical;
    Alcotest.test_case "multi-episode resume" `Quick multi_episode_resume;
    Alcotest.test_case "resume divergence detected" `Quick resume_divergence_detected;
    Alcotest.test_case "trace gate tiling" `Quick trace_gate_tiling;
    Alcotest.test_case "unreached resume boundary" `Quick unreached_resume_boundary;
    Alcotest.test_case "pause on heartbeat ticks" `Quick pause_on_ticks;
  ]
