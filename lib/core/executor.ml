exception Internal_error = Interp.Internal_error

type seeded_bug = Interp.seeded_bug =
  | Duplicate_leftover
  | Lose_stolen_task
  | Promote_innermost

let set_seeded_bug = Interp.set_seeded_bug

(* The simulator's side of the shared interpreter: events are stamped with
   virtual time, every hook charges the cost model's cycles into the engine
   with per-kind attribution, memory traffic is booked on the engine's bus,
   beats come from the heartbeat mechanism, and reduction halves combine
   inside their spawned task (the engine is single-fibered, so there is no
   race, and the byte pins depend on that timing). *)
module Hooks = struct
  module B = Sim_backend

  type t = Sim_backend.t

  let backend h = h

  let emit = Sim_backend.emit

  let poll h ~worker ~count_poll = Heartbeat.consume h.Sim_backend.hb ~worker ~count_poll

  let cost h = h.Sim_backend.cost

  let add_work h ~worker:_ c = Sim_backend.add_work h c

  let charge_slice_entry = Sim_backend.charge_slice_entry

  let charge_lst_store h =
    Sim_backend.overhead h Sim.Metrics.Lst_store (cost h).Sim.Cost_model.lst_store_cost

  let charge_serial h ~worker:_ ~work ~bytes = Sim_backend.advance_mixed h ~work ~overhead:0 ~bytes

  let charge_batch = Sim_backend.charge_batch

  let charge_latch = Sim_backend.charge_latch

  let charge_promotion h =
    Sim_backend.overhead h Sim.Metrics.Promotion (cost h).Sim.Cost_model.promotion_handler_cost

  let charge_reduction h c = Sim_backend.overhead h Sim.Metrics.Reduction c

  let combine_in_task = true
end

module I = Interp.Make (Hooks)
module S = Sched.Core.Make (Sim_backend)

(* Raised by a pause boundary's callback, caught around [Sim.Engine.run]. *)
exception Pause of Sim.Checkpoint_state.t

let run_program ?(request = Run_request.default) (cfg : Rt_config.t)
    (compiled : 'e Pipeline.program) : Sim.Run_result.t =
  (match (request.Run_request.pause_at, request.Run_request.resume_from) with
  | Some p, Some ck when p <= ck.Sim.Checkpoint_state.at_cycle ->
      invalid_arg
        (Printf.sprintf "pause at cycle %d is not past the checkpoint's boundary at cycle %d" p
           ck.Sim.Checkpoint_state.at_cycle)
  | _ -> ());
  let program = compiled.Pipeline.source in
  let env = program.Ir.Program.make_env () in
  let gate, observer = Interp.gated_observer request in
  let sb = Sim_backend.create cfg request ~observer ~bug:!Interp.seeded_bug in
  let eng = sb.Sim_backend.eng and hb = sb.Sim_backend.hb in
  let st = I.create sb cfg request in
  let sc = I.core st in
  Sim.Engine.set_diagnostics eng (fun w ->
      Printf.sprintf " deque=%d depth=%d%s"
        (Sim.Deque.length sb.Sim_backend.deques.(w))
        (S.depth sc).(w)
        (if Heartbeat.is_downgraded hb ~worker:w then " downgraded" else ""));
  let machine () =
    {
      Interp.rng_state = Sim.Sim_rng.state (Sim.Engine.rng eng);
      work_cycles = sb.Sim_backend.metrics.Sim.Metrics.work_cycles;
      clocks = Array.init cfg.Rt_config.workers (fun w -> Sim.Engine.clock_of eng w);
      deques =
        Array.map
          (fun d -> List.map (fun (t : Sched.Task.t) -> t.Sched.Task.id) (Sim.Deque.to_list d))
          sb.Sim_backend.deques;
    }
  in
  (* Pause and resume boundaries are engine callbacks, queued here before
     any other event: before the heartbeat's first timers, the request's
     caps and the workers' start callbacks. Each then has the lowest seq
     at its cycle, so it fires after every event earlier than the cycle
     and before any event at or past it, and no worker runs ahead across
     it. That is the cut a checkpoint stands for: the paused run's trace
     ends strictly before the boundary, and the resumed run checks the
     same state and opens its gate before anything at the boundary runs.
     A timer queued ahead of a boundary at its own cycle would fire on
     the paused side of the cut and be muted in the resumed run. *)
  let reached = ref (Option.is_none request.Run_request.resume_from) and applied = ref (-1) in
  Option.iter
    (fun (ck : Sim.Checkpoint_state.t) ->
      (* Effect fibers cannot be serialized, so resume replays the run
         from cycle 0 — determinism makes the replay byte-exact — with the
         grant history re-applied, so metered promotion decisions replay
         as in the original episodes, and proves the re-derived state at
         the boundary matches the checkpoint before going past it. *)
      List.iter
        (fun (cycle, grant) ->
          if grant >= 0 then
            Sim.Engine.schedule_at eng ~time:cycle (fun () -> I.set_promo_left st grant))
        ck.Sim.Checkpoint_state.regrants;
      Sim.Engine.schedule_at eng ~time:ck.Sim.Checkpoint_state.at_cycle (fun () ->
          reached := true;
          match I.resume_mismatch st (machine ()) ck with
          | Some reason -> raise (Sim.Engine.Guard_stop ("resume-divergence: " ^ reason))
          | None ->
              (* The replay reproduced the paused state exactly: open the
                 gate, apply this episode's grant and run for real. *)
              gate := true;
              applied := I.apply_grant st request))
    request.Run_request.resume_from;
  Option.iter
    (fun at_cycle ->
      Sim.Engine.schedule_at eng ~time:at_cycle (fun () ->
          raise (Pause (I.paused st (machine ()) request ~applied:!applied ~at_cycle))))
    request.Run_request.pause_at;
  Heartbeat.start hb;
  let main w =
    if w = 0 then begin
      S.root sc (fun () ->
          let cpu =
            {
              Ir.Program.exec = (fun nest -> I.exec_nest st compiled env nest);
              advance = (fun cyc -> Sim_backend.add_work sb cyc);
            }
          in
          let t0 = Sim.Engine.now eng in
          program.Ir.Program.driver env cpu;
          if sb.Sim_backend.capture && Sim.Engine.now eng > t0 then
            Sim_backend.emit sb (Obs.Trace.Interval { t0; kind = "driver" }));
      S.set_finished sc;
      Heartbeat.stop hb;
      Sim.Engine.unpark_all eng
    end
    else S.scavenge sc
  in
  Sim_backend.supervise eng sb.Sim_backend.metrics request
    ~fingerprint:(fun () -> program.Ir.Program.fingerprint env)
    (fun () ->
      match Sim.Engine.run eng main with
      | exception Pause ck -> Sim.Run_result.Paused ck
      | () when !reached -> Sim.Run_result.Finished
      | () ->
          Sim.Run_result.Guard_aborted
            (Printf.sprintf "resume-divergence: run finished before the boundary at cycle %d"
               (Option.get request.Run_request.resume_from).Sim.Checkpoint_state.at_cycle))
