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

   Pause/checkpoint-resume is the simulator's ([Hbc_core.Executor]):
   requests carrying [pause_at] or [resume_from] are refused here. *)

module Rt_config = Hbc_core.Rt_config
module Pipeline = Hbc_core.Pipeline
module Run_request = Hbc_core.Run_request
module C = Sched.Core.Make (Domains_backend)

exception Internal_error = Hbc_core.Interp.Internal_error

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
     when every kind is backend-portable; pause/resume is refused. *)
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
  if Option.is_some request.Run_request.pause_at || Option.is_some request.Run_request.resume_from
  then
    invalid_arg
      "Native_run: pause/resume (pause_at, resume_from) runs on the simulator only; use \
       --backend sim";
  let n = Stdlib.max 1 cfg.Rt_config.workers in
  let program = compiled.Pipeline.source in
  let env = program.Ir.Program.make_env () in
  let capture = Obs.Trace.Sink.enabled request.Run_request.trace in
  let b = Domains_backend.create ~workers:n ~trace:request.Run_request.trace ~capture in
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
      driver_segment_ends ());
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
    termination = Sim.Run_result.Finished;
    trace = Obs.Trace.Sink.captured request.Run_request.trace;
    sanitizer = None;
  }
