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

let run_program ?(request = Run_request.default) (cfg : Rt_config.t)
    (compiled : 'e Pipeline.program) : Sim.Run_result.t =
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
  let termination = ref Sim.Run_result.Finished in
  let pause_if_stopped ~applied =
    if Sim.Engine.paused eng then
      let at_cycle = Option.get request.Run_request.pause_at in
      termination := Sim.Run_result.Paused (I.paused st (machine ()) request ~applied ~at_cycle)
  in
  Sim_backend.supervise eng sb.Sim_backend.metrics request
    ~fingerprint:(fun () -> program.Ir.Program.fingerprint env)
    (fun () ->
      (match request.Run_request.resume_from with
      | None ->
          (match request.Run_request.pause_at with
          | Some p -> Sim.Engine.set_pause_at eng p
          | None -> ());
          Sim.Engine.run eng main;
          pause_if_stopped ~applied:(-1)
      | Some ck ->
          (* Effect fibers cannot be serialized, so resume replays the run
             from cycle 0 — determinism makes the replay byte-exact — and
             proves the re-derived boundary state matches the checkpoint
             before continuing past it. *)
          let ok = ref true in
          let diverged reason =
            ok := false;
            termination := Sim.Run_result.Guard_aborted ("resume-divergence: " ^ reason)
          in
          let started = ref false in
          let run_to cycle =
            Sim.Engine.set_pause_at eng cycle;
            if !started then Sim.Engine.continue_run eng
            else begin
              started := true;
              Sim.Engine.run eng main
            end;
            if not (Sim.Engine.paused eng) then
              diverged (Printf.sprintf "run finished before the boundary at cycle %d" cycle)
          in
          (* Re-apply the grant history so metered promotion decisions replay
             exactly as in the original episodes. *)
          List.iter
            (fun (cycle, grant) ->
              if !ok then begin
                run_to cycle;
                if !ok && grant >= 0 then I.set_promo_left st grant
              end)
            ck.Sim.Checkpoint_state.regrants;
          if !ok then run_to ck.Sim.Checkpoint_state.at_cycle;
          if !ok then
            match I.resume_mismatch st (machine ()) ck with
            | Some reason -> diverged reason
            | None ->
                (* The replay reproduced the paused state exactly: open the
                   gate, apply this episode's grant and run for real. *)
                gate := true;
                let applied = I.apply_grant st request in
                (match request.Run_request.pause_at with
                | Some p when p > ck.Sim.Checkpoint_state.at_cycle -> Sim.Engine.set_pause_at eng p
                | Some _ | None -> Sim.Engine.clear_pause eng);
                Sim.Engine.continue_run eng;
                pause_if_stopped ~applied);
      !termination)
