(* The heartbeat runtime on real OCaml 5 domains: the driver and the
   backend hooks of the shared interpreter ([Hbc_core.Interp]). The
   interpreter, the promotion choice ([Sched.Policy]), the
   adaptive-chunking rule ([Sched.Adaptive_chunking]), the leftover walk
   ([Sched.Leftover_walk]) and the deque/steal/join discipline
   ([Sched.Core.Make (Domains_backend)]) are the simulator's, line for
   line. What is native is only what the hooks cover: real time is simply
   spent, so every cost charge except body work is a no-op; beats come
   from [Beat], the native beat layer [Hb_par] polls too, where under
   wall-clock beats only a leaf poll reads the clock and the enclosing
   loop's latch usually takes the beat it flagged; reduction
   halves combine on the owner after the join, since spawned tasks run
   concurrently. Traced runs emit the same capture-gated
   [Obs.Trace] events at the same operation boundaries as the simulator,
   linearized by the backend's mutex, so the sanitizer validates native
   streams with its full invariant set; fingerprints cross-check against
   simulator runs of the same program.

   Fault tolerance (the robustness layer, all strictly opt-in):

   - Chaos: a backend-portable [Sim.Fault_plan] attaches a
     [Sim.Fault_injector] to the backend. Steal refusals and wakeup
     suppressions are drawn inside the backend; dropped beats and
     poll-counted stalls are drawn in [Beat] at beat boundaries. Decisions
     come from per-worker seeded streams, so the decision sequence is
     reproducible from (plan seed, P). Simulator-only kinds (cycle
     jitter, cycle-counted stalls) are refused with a precise error.

   - Watchdog ladder: rung 1 ([Beat]) detects a beat-starved worker
     ([watchdog_k] consecutive suppressed beats) and downgrades it to
     polling fallback — beats always deliver from then on; rung 2 is
     sampled from the leaf polls of the workers that still make
     progress: it reads [Beat]'s progress counters and disables further
     promotions when a busy worker makes no progress for a bounded
     window. Both rungs emit [Mechanism_downgrade].

   - Pause/checkpoint-resume: under the deterministic [Every_polls]
     beat with one worker, a run can pause at a scheduling-point
     boundary, serialize a [Sim.Checkpoint_state], and resume by
     replaying from scratch with the trace gated until the boundary,
     where the re-derived state must be byte-identical (the same
     replay-with-verify scheme the simulator executor uses — fibers and
     stacks cannot be serialized, determinism can). *)

module Rt_config = Hbc_core.Rt_config
module Pipeline = Hbc_core.Pipeline
module Run_request = Hbc_core.Run_request
module C = Sched.Core.Make (Domains_backend)

exception Internal_error = Hbc_core.Interp.Internal_error

(* Pause/resume control flow: [Pause_now] unwinds the run at the armed
   boundary (the heap state it needs — contexts, live-slice registry,
   deques — survives the unwind untouched); [Resume_diverged] aborts a
   replay whose re-derived boundary state mismatched the checkpoint. *)
exception Pause_now

exception Resume_diverged of string

type beat_source = Beat.source = Wall_us of float | Every_polls of int

(* The hook state: the beat layer and the per-worker body-work counters. *)
type run_state = {
  b : Domains_backend.t;
  beat : Beat.t;
  work : int array;  (* per-worker body-work cycles, summed at the end *)
  capture : bool;
}

(* Untraced runs skip the critical section entirely, so emission costs
   nothing on the lock-free fast path. *)
let emit (st : run_state) ev =
  if st.capture then Domains_backend.critical st.b (fun () -> Domains_backend.emit st.b ev)

let add_work (st : run_state) ~worker c = if c > 0 then st.work.(worker) <- st.work.(worker) + c

module Hooks = struct
  module B = Domains_backend

  type t = run_state

  let backend st = st.b

  let emit = emit

  let poll st ~worker ~count_poll = Beat.consume st.beat worker ~count_poll

  let add_work = add_work

  let charge_slice_entry _ = ()

  let charge_lst_store _ = ()

  let charge_serial st ~worker ~work ~bytes:_ = add_work st ~worker work

  let charge_batch st ~worker ~work ~bytes:_ ~chunked:_ ~polled:_ = add_work st ~worker work

  let charge_latch _ ~bytes:_ = ()

  let charge_promotion _ = ()

  let charge_reduction _ _ = ()

  let combine_in_task = false
end

module I = Hbc_core.Interp.Make (Hooks)

let run_program ?(request = Run_request.default) ?(beat = Wall_us 100.0) (cfg : Rt_config.t)
    (compiled : 'e Pipeline.program) : Sim.Run_result.t =
  (* Capability checks, with precise errors: fault plans are accepted
     when every kind is backend-portable; pause/resume is accepted under
     the deterministic beat with one worker. *)
  (match request.Run_request.fault_plan with
  | Some plan when not (Sim.Fault_plan.is_zero plan) -> (
      match Sim.Fault_plan.simulator_only plan with
      | [] -> ()
      | bad ->
          invalid_arg
            (Printf.sprintf
               "Native_run: fault plan uses simulator-only kinds: %s; drop them or run on \
                --backend sim"
               (String.concat ", " bad)))
  | Some _ | None -> ());
  let pausing =
    Option.is_some request.Run_request.pause_at || Option.is_some request.Run_request.resume_from
  in
  let n = Stdlib.max 1 cfg.Rt_config.workers in
  if pausing then begin
    (match beat with
    | Every_polls _ -> ()
    | Wall_us _ ->
        invalid_arg
          "Native_run: pause/resume needs the deterministic Every_polls beat (--beat polls:N) — \
           wall-clock heartbeats cannot be replayed byte-identically");
    if n > 1 then
      invalid_arg
        "Native_run: pause/resume needs workers=1 — a multi-worker native replay is not \
         byte-reproducible; use workers=1 or --backend sim"
  end;
  let program = compiled.Pipeline.source in
  let env = program.Ir.Program.make_env () in
  let capture = Obs.Trace.Sink.enabled request.Run_request.trace in
  let gate, observer = Hbc_core.Interp.gated_observer request in
  let b = Domains_backend.create ~workers:n ~trace:observer ~capture in
  (* Rare events — injected faults and watchdog downgrades — count into
     [metrics] through the simulator's own rule ({!Sim.Metrics.count_event})
     and forward into the linearized trace. They come from any domain, so
     counting takes a mutex. Injector draws happen outside [critical]
     sections (leaf polls, try_steal's veto hook, the post-critical wake
     path), so taking [critical] here cannot deadlock. *)
  let metrics = Sim.Metrics.create () in
  let metrics_mu = Mutex.create () in
  let note ev =
    Mutex.protect metrics_mu (fun () -> Sim.Metrics.count_event metrics ev);
    Domains_backend.critical b (fun () -> Domains_backend.emit b ev)
  in
  (match request.Run_request.fault_plan with
  | Some plan when not (Sim.Fault_plan.is_zero plan) ->
      let trace = Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ ev -> note ev) in
      Domains_backend.set_injector b (Sim.Fault_injector.create plan ~num_workers:n ~trace ())
  | Some _ | None -> ());
  let injector = Domains_backend.injector b in
  let beat =
    Beat.create beat ~workers:n ~injector ~watchdog_k:cfg.Rt_config.watchdog_k
      ~on_downgrade:(fun () -> note Obs.Trace.Mechanism_downgrade)
  in
  let st = { b; beat; work = Array.make n 0; capture } in
  let ist = I.create st cfg request in
  let core = I.core ist in
  (* The boundary state is a pure function of the single-worker
     deterministic dispatch history; progress counts stand in for clocks. *)
  let machine () =
    {
      Hbc_core.Interp.rng_state = Int64.of_int (Domains_backend.rng_word b ~worker:0);
      work_cycles = Array.fold_left ( + ) 0 st.work;
      clocks = Array.init n (fun worker -> Beat.progress beat ~worker);
      deques = Array.init n (fun w -> Domains_backend.deque_task_ids b ~worker:w);
    }
  in
  (* Boundary agenda: an ascending list of (progress, action) marks that
     [Beat.consume] fires synchronously on worker 0 — regrant replays, the
     resume byte-verify, and the pause point itself. *)
  let rec arm = function
    | [] -> Beat.arm beat ~at:Stdlib.max_int ignore
    | (p, act) :: rest ->
        Beat.arm beat ~at:p (fun () ->
            arm rest;
            act ())
  in
  let applied = ref (-1) in
  (match request.Run_request.resume_from with
  | None -> (
      match request.Run_request.pause_at with
      | Some p -> arm [ (p, fun () -> raise Pause_now) ]
      | None -> ())
  | Some ck ->
      let verify () =
        match I.resume_mismatch ist (machine ()) ck with
        | Some reason -> raise (Resume_diverged reason)
        | None -> (
            (* The replay reproduced the paused state exactly: open the
               gate, apply this episode's grant and run for real. *)
            gate := true;
            applied := I.apply_grant ist request;
            match request.Run_request.pause_at with
            | Some p when p > ck.Sim.Checkpoint_state.at_cycle ->
                arm [ (p, fun () -> raise Pause_now) ]
            | Some _ | None -> ())
      in
      arm
        (List.map
           (fun (cyc, g) -> (cyc, fun () -> if g >= 0 then I.set_promo_left ist g))
           ck.Sim.Checkpoint_state.regrants
        @ [ (ck.Sim.Checkpoint_state.at_cycle, verify) ]));
  (* Watchdog rung 2, sampled from chaos leaf polls ([Beat.on_sample]):
     one sample per 3.2 ms, taken by whichever polling worker gets the
     sampler's lock first. A busy worker whose progress counter has not
     moved for [stuck_after] consecutive samples (about 25 ms) is
     considered stuck; further promotions are disabled so no new tasks
     land behind it, and the run degrades to finishing what is already
     split. Only a worker that polls can promote, so sampling from polls
     covers every case in which disabling promotions changes anything. *)
  if Sim.Fault_injector.active injector && n > 1 then begin
    let sample_ns = 3_200_000 and stuck_after = 8 in
    let last = Array.make n (-1) in
    let stuck = Array.make n 0 in
    let due = ref (Beat.now_ns () + sample_ns) in
    let mu = Mutex.create () in
    Beat.on_sample beat (fun () ->
        if Mutex.try_lock mu then begin
          let now = Beat.now_ns () in
          if now >= !due then begin
            due := now + sample_ns;
            for w = 0 to n - 1 do
              let p = Beat.progress beat ~worker:w in
              if Domains_backend.is_busy b ~worker:w && p = last.(w) then begin
                stuck.(w) <- stuck.(w) + 1;
                if stuck.(w) = stuck_after && I.disable_promotions ist then
                  note Obs.Trace.Mechanism_downgrade
              end
              else stuck.(w) <- 0;
              last.(w) <- p
            done
          end;
          Mutex.unlock mu
        end)
  end;
  let domains = Domains_backend.start b ~work:(fun () -> C.scavenge core) in
  let t_start = Beat.now_ns () in
  let termination = ref Sim.Run_result.Finished in
  (try
     Fun.protect
       ~finally:(fun () ->
         C.set_finished core;
         Domains_backend.stop b domains)
       (fun () ->
         C.root core @@ fun () ->
         (* Driver intervals cover only the serial segments between nests —
            while a nest runs, worker 0 records its own task intervals, and
            one interval spanning the whole run would overlap them. *)
         let mark = ref (Domains_backend.now b) in
         let driver_segment_ends () =
           if st.capture && Domains_backend.now b > !mark then
             emit st (Obs.Trace.Interval { t0 = !mark; kind = "driver" })
         in
         let cpu =
           {
             Ir.Program.exec =
               (fun nest ->
                 driver_segment_ends ();
                 I.exec_nest ist compiled env nest;
                 mark := Domains_backend.now b);
             advance = (fun cyc -> add_work st ~worker:0 cyc);
           }
         in
         program.Ir.Program.driver env cpu;
         driver_segment_ends ())
   with
  | Pause_now ->
      (* The unwind skipped the live-registry pops and mutated nothing the
         checkpoint reads, so the boundary state is captured here intact. *)
      let at_cycle = Option.get request.Run_request.pause_at in
      termination :=
        Sim.Run_result.Paused (I.paused ist (machine ()) request ~applied:!applied ~at_cycle)
  | Resume_diverged reason -> termination := Sim.Run_result.Guard_aborted ("resume-divergence: " ^ reason));
  (match (request.Run_request.resume_from, !termination) with
  | Some ck, Sim.Run_result.Finished when not !gate ->
      termination :=
        Sim.Run_result.Guard_aborted
          (Printf.sprintf "resume-divergence: run finished before the boundary at cycle %d"
             ck.Sim.Checkpoint_state.at_cycle)
  | _ -> ());
  let elapsed_us = (Beat.now_ns () - t_start) / 1000 in
  metrics.Sim.Metrics.work_cycles <- Array.fold_left ( + ) 0 st.work;
  metrics.Sim.Metrics.promotions <- I.promotions ist;
  {
    (* makespan is wall microseconds here, not virtual cycles — comparable
       only between native runs. *)
    Sim.Run_result.makespan = elapsed_us;
    metrics;
    fingerprint = program.Ir.Program.fingerprint env;
    work_cycles = metrics.Sim.Metrics.work_cycles;
    dnf = false;
    termination = !termination;
    trace = Obs.Trace.Sink.captured request.Run_request.trace;
    sanitizer = None;
  }
