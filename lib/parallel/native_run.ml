(* The heartbeat runtime on real OCaml 5 domains: the driver and the
   backend hooks of the shared interpreter ([Hbc_core.Interp]). The
   interpreter, the promotion choice ([Sched.Policy]), the
   adaptive-chunking rule ([Sched.Adaptive_chunking]), the leftover walk
   ([Sched.Leftover_walk]) and the deque/steal/join discipline
   ([Sched.Core.Make (Domains_backend)]) are the simulator's, line for
   line. What is native is only what the hooks cover: real time is simply
   spent, so every cost charge except body work is a no-op; beats come
   from a wall-clock timer or a poll count, under chaos and the watchdog;
   reduction halves combine on the owner after the join, since spawned
   tasks run concurrently. Traced runs emit the same capture-gated
   [Obs.Trace] events at the same operation boundaries as the simulator,
   linearized by the backend's mutex, so the sanitizer validates native
   streams with its full invariant set; fingerprints cross-check against
   simulator runs of the same program.

   Fault tolerance (the robustness layer, all strictly opt-in):

   - Chaos: a backend-portable [Sim.Fault_plan] attaches a
     [Sim.Fault_injector] to the backend. Steal refusals and wakeup
     suppressions are drawn inside the backend; dropped beats and
     poll-counted stalls are drawn here at beat boundaries. Decisions
     come from per-worker seeded streams, so the decision sequence is
     reproducible from (plan seed, P). Simulator-only kinds (cycle
     jitter, cycle-counted stalls) are refused with a precise error.

   - Watchdog ladder: rung 1 detects a beat-starved worker
     ([watchdog_k] consecutive suppressed beats) and downgrades it to
     polling fallback — beats always deliver from then on; rung 2 runs
     on the monitor domain, samples per-worker progress counters, and
     disables further promotions when a busy worker makes no progress
     for a bounded window. Both rungs emit [Mechanism_downgrade].

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

(* When a native worker observes a heartbeat. [Wall_us] is the paper's
   interval timer; [Every_polls] is a deterministic poll-count proxy that
   makes single-domain runs reproducible (benchgate, CI smoke). *)
type beat_source = Wall_us of float | Every_polls of int

(* The hook state: beat delivery, chaos and watchdog bookkeeping, and the
   per-worker body-work counters. *)
type run_state = {
  cfg : Rt_config.t;
  b : Domains_backend.t;
  beat : beat_source;
  next_beat : int array;  (* per worker, monotonic ns, Wall_us only *)
  polls : int array;  (* per worker, Every_polls only *)
  progress : int array;
      (* per-worker scheduling-point counter (every consume call), always
         bumped: the pause-boundary clock at P=1 and the liveness signal
         the monitor watchdog samples. Plain stores — monitor reads race,
         which the watchdog tolerates. *)
  work : int array;  (* per-worker body-work cycles, summed at the end *)
  capture : bool;
  chaos : bool;  (* an active fault injector is attached to the backend *)
  stall_left : int array;  (* injected stall: polls left to ignore beats *)
  since_beat : int array;  (* consecutive suppressed beats (watchdog rung 1) *)
  downgraded : bool array;  (* rung 1 tripped: polling fallback, beats always land *)
  downgrades : int Atomic.t;
  mutable next_mark : int;
      (* progress value of the next pause/regrant/verify boundary on
         worker 0; max_int when none is armed (the common case) *)
  mutable on_mark : unit -> unit;
}

(* Untraced runs skip the critical section entirely, so emission costs
   nothing on the lock-free fast path. *)
let emit (st : run_state) ev =
  if st.capture then Domains_backend.critical st.b (fun () -> Domains_backend.emit st.b ev)

let add_work (st : run_state) ~worker c = if c > 0 then st.work.(worker) <- st.work.(worker) + c

(* Monotonic wall-clock nanoseconds: beats and makespan never see the
   wall clock step. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A beat reached [w]'s boundary under chaos on a non-downgraded worker:
   decide delivery. An injected stall window or a drop suppresses it;
   [watchdog_k] consecutive suppressions trip rung 1 — from then on the
   worker polls for beats directly (downgraded), so starvation is bounded
   by [watchdog_k] beat periods. *)
let chaos_beat st w =
  let inj = Domains_backend.injector st.b in
  let suppressed =
    if st.stall_left.(w) > 0 then true
    else begin
      let s = Sim.Fault_injector.stall_polls inj ~worker:w in
      if s > 0 then begin
        st.stall_left.(w) <- s;
        true
      end
      else Sim.Fault_injector.drop_beat inj ~worker:w
    end
  in
  if not suppressed then begin
    st.since_beat.(w) <- 0;
    true
  end
  else begin
    st.since_beat.(w) <- st.since_beat.(w) + 1;
    if st.since_beat.(w) >= st.cfg.Rt_config.watchdog_k then begin
      st.downgraded.(w) <- true;
      st.stall_left.(w) <- 0;
      Atomic.incr st.downgrades;
      emit st Obs.Trace.Mechanism_downgrade;
      (* the fallback poll delivers the beat that tripped the watchdog *)
      true
    end
    else false
  end

(* One heartbeat check on this worker. A leaf poll counts ([count_poll]);
   a non-leaf latch only reads the flag, exactly as in the simulator.
   Every call bumps the progress counter (one plain store — the untraced
   fault-free hot path stays allocation-free); chaos and pause marks cost
   nothing when unarmed thanks to the [chaos] bool and the max_int
   sentinel. *)
let consume (st : run_state) w ~count_poll =
  st.progress.(w) <- st.progress.(w) + 1;
  if count_poll && st.chaos && st.stall_left.(w) > 0 then
    st.stall_left.(w) <- st.stall_left.(w) - 1;
  if st.progress.(w) = st.next_mark then st.on_mark ();
  let boundary =
    match st.beat with
    | Every_polls n ->
        if count_poll then st.polls.(w) <- st.polls.(w) + 1;
        if st.polls.(w) >= n then begin
          st.polls.(w) <- 0;
          true
        end
        else false
    | Wall_us us ->
        let t = now_ns () in
        if t >= st.next_beat.(w) then begin
          st.next_beat.(w) <- t + int_of_float (us *. 1e3);
          true
        end
        else false
  in
  boundary && ((not st.chaos) || st.downgraded.(w) || chaos_beat st w)

module Hooks = struct
  module B = Domains_backend

  type t = run_state

  let backend st = st.b

  let emit = emit

  let poll st ~worker ~count_poll = consume st worker ~count_poll

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
  (* Injected-fault accounting: the injector's own sink counts each kind
     into atomics (the untraced chaos path has no mutex to rely on) and
     forwards the event into the linearized trace. Injector draws happen
     outside [critical] sections (leaf polls, try_steal's veto hook, the
     post-critical wake path), so taking [critical] here cannot deadlock. *)
  let f_drops = Atomic.make 0 in
  let f_steals = Atomic.make 0 in
  let f_stalls = Atomic.make 0 in
  let f_stall_polls = Atomic.make 0 in
  let f_wakeups = Atomic.make 0 in
  (match request.Run_request.fault_plan with
  | Some plan when not (Sim.Fault_plan.is_zero plan) ->
      let sink =
        Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ ev ->
            (match ev with
            | Obs.Trace.Fault_injected f -> (
                match f with
                | Obs.Trace.Beat_dropped -> Atomic.incr f_drops
                | Obs.Trace.Steal_failed -> Atomic.incr f_steals
                | Obs.Trace.Stall p ->
                    Atomic.incr f_stalls;
                    ignore (Atomic.fetch_and_add f_stall_polls p)
                | Obs.Trace.Wakeup_delayed -> Atomic.incr f_wakeups
                | Obs.Trace.Beat_delayed _ -> ())
            | _ -> ());
            Domains_backend.critical b (fun () -> Domains_backend.emit b ev))
      in
      Domains_backend.set_injector b (Sim.Fault_injector.create plan ~num_workers:n ~trace:sink ())
  | Some _ | None -> ());
  let st =
    {
      cfg;
      b;
      beat;
      next_beat = Array.make n 0;
      polls = Array.make n 0;
      progress = Array.make n 0;
      work = Array.make n 0;
      capture;
      chaos = Sim.Fault_injector.active (Domains_backend.injector b);
      stall_left = Array.make n 0;
      since_beat = Array.make n 0;
      downgraded = Array.make n false;
      downgrades = Atomic.make 0;
      next_mark = Stdlib.max_int;
      on_mark = (fun () -> ());
    }
  in
  let ist = I.create st cfg request in
  let core = I.core ist in
  (match beat with
  | Wall_us us ->
      Array.fill st.next_beat 0 n (now_ns () + int_of_float (us *. 1e3))
  | Every_polls _ -> ());
  (* The boundary state is a pure function of the single-worker
     deterministic dispatch history; progress counts stand in for clocks. *)
  let machine () =
    {
      Hbc_core.Interp.rng_state = Int64.of_int (Domains_backend.rng_word b ~worker:0);
      work_cycles = Array.fold_left ( + ) 0 st.work;
      clocks = Array.copy st.progress;
      deques = Array.init n (fun w -> Domains_backend.deque_task_ids b ~worker:w);
    }
  in
  (* Boundary agenda: an ascending list of (progress, action) marks that
     [consume] fires synchronously on worker 0 — regrant replays, the
     resume byte-verify, and the pause point itself. *)
  let marks = ref [] in
  let arm ms =
    marks := ms;
    st.next_mark <- (match ms with [] -> Stdlib.max_int | (p, _) :: _ -> p)
  in
  st.on_mark <-
    (fun () ->
      match !marks with
      | [] -> st.next_mark <- Stdlib.max_int
      | (_, act) :: rest ->
          arm rest;
          act ());
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
  (* Watchdog rung 2, sampled on the monitor domain: a busy worker whose
     progress counter has not moved for [stuck_after] consecutive samples
     (one sample every [sample_every] park-timeout periods) is considered
     stuck; further promotions are disabled so no new tasks land behind
     it, and the run degrades to finishing what is already split. *)
  let tick =
    if not st.chaos then fun () -> ()
    else begin
      let sample_every = 16 and stuck_after = 8 in
      let last = Array.make n (-1) in
      let stuck = Array.make n 0 in
      let ticks = ref 0 in
      fun () ->
        incr ticks;
        if !ticks mod sample_every = 0 then
          for w = 0 to n - 1 do
            let p = st.progress.(w) in
            if Domains_backend.is_busy b ~worker:w && p = last.(w) then begin
              stuck.(w) <- stuck.(w) + 1;
              if stuck.(w) = stuck_after && I.disable_promotions ist then begin
                Atomic.incr st.downgrades;
                emit st Obs.Trace.Mechanism_downgrade
              end
            end
            else stuck.(w) <- 0;
            last.(w) <- p
          done
    end
  in
  Domains_backend.register ~worker:0;
  Domains_backend.start_monitor ~tick b;
  let domains =
    List.init (n - 1) (fun i ->
        Domain.spawn (fun () ->
            Domains_backend.register ~worker:(i + 1);
            C.scavenge core))
  in
  let t_start = now_ns () in
  let termination = ref Sim.Run_result.Finished in
  (try
     Fun.protect
       ~finally:(fun () ->
         C.set_finished core;
         (* Wake every parked scavenger so it observes the finished flag;
            the monitor keeps broadcasting until after the joins, so a
            worker that parks in the race window is freed within one
            timeout. Only then is the monitor stopped. *)
         Domains_backend.wake_all b;
         List.iter Domain.join domains;
         Domains_backend.stop_monitor b)
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
  let elapsed_us = (now_ns () - t_start) / 1000 in
  let metrics = Sim.Metrics.create () in
  metrics.Sim.Metrics.work_cycles <- Array.fold_left ( + ) 0 st.work;
  metrics.Sim.Metrics.promotions <- I.promotions ist;
  metrics.Sim.Metrics.faults_beats_dropped <- Atomic.get f_drops;
  metrics.Sim.Metrics.faults_steals_failed <- Atomic.get f_steals;
  metrics.Sim.Metrics.faults_stalls <- Atomic.get f_stalls;
  (* stall windows are poll-counted natively; the cycle counter carries
     the poll total so faults_injected and reports stay meaningful *)
  metrics.Sim.Metrics.faults_stall_cycles <- Atomic.get f_stall_polls;
  metrics.Sim.Metrics.faults_wakeups_delayed <- Atomic.get f_wakeups;
  metrics.Sim.Metrics.downgrades <- Atomic.get st.downgrades;
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
