let tiny_scale = 0.03

let tiny_workers = 8

let seed = 1

(* --------------------------- micro probes ------------------------- *)

let micro_deque () =
  Probe.run ~name:"micro/deque" (fun ctx ->
      let d = Sim.Deque.create () in
      let rounds = 4096 in
      for _ = 1 to rounds do
        for i = 0 to 7 do
          Sim.Deque.push_bottom d i
        done;
        for _ = 1 to 4 do
          ignore (Sim.Deque.pop_bottom d)
        done;
        for _ = 1 to 4 do
          ignore (Sim.Deque.steal d)
        done
      done;
      Probe.deti ctx "ops" (rounds * 16))

let micro_rng () =
  Probe.run ~name:"micro/rng-zipf" (fun ctx ->
      let r = Sim.Sim_rng.create seed in
      let draws = 16384 in
      for _ = 1 to draws do
        ignore (Sim.Sim_rng.zipf r ~alpha:1.4 ~n:1000)
      done;
      Probe.deti ctx "draws" draws)

let micro_perfect_hash () =
  Probe.run ~name:"micro/perfect-hash" (fun ctx ->
      let keys = List.init 24 (fun i -> (i, i / 2)) in
      let t = Hbc_core.Perfect_hash.build keys in
      let lookups = 16384 in
      for i = 1 to lookups do
        ignore (Hbc_core.Perfect_hash.lookup t (i mod 24, i mod 12))
      done;
      Probe.deti ctx "lookups" lookups)

let micro_adaptive_chunking () =
  Probe.run ~name:"micro/adaptive-chunking" (fun ctx ->
      let ac = Sched.Adaptive_chunking.create ~target_polls:8 ~window:4 () in
      let beats = 2048 in
      for _ = 1 to beats do
        for _ = 1 to 8 do
          Sched.Adaptive_chunking.on_poll ac
        done;
        ignore (Sched.Adaptive_chunking.on_heartbeat ac)
      done;
      Probe.deti ctx "beats" beats)

(* The executor's fast path: every runtime event goes through a tee of the
   counting sink and the request's sink, which for an untraced run is
   [null]. This probe emits the exact event mix of a promotion-heavy run
   into that tee: its allocation words are the per-event cost of
   observability when nobody is recording. *)
let micro_trace_emission () =
  Probe.run ~name:"micro/trace-null-emission" (fun ctx ->
      let m = Sim.Metrics.create () in
      let sink = Obs.Trace.Sink.tee (Sim.Metrics.counting_sink m) Obs.Trace.Sink.null in
      let rounds = 4096 in
      for i = 1 to rounds do
        Obs.Trace.Sink.emit sink ~time:i ~worker:(i land 7) Obs.Trace.Poll;
        Obs.Trace.Sink.emit sink ~time:i ~worker:(i land 7) Obs.Trace.Steal_attempt;
        Obs.Trace.Sink.emit sink ~time:i ~worker:(i land 7) (Obs.Trace.promotion (i land 3));
        Obs.Trace.Sink.emit sink ~time:i ~worker:(i land 7) Obs.Trace.Heartbeat_generated
      done;
      Probe.deti ctx "events" (rounds * 4);
      Probe.deti ctx "counted_promotions" m.Sim.Metrics.promotions)

(* The engine's dispatch loop: workers ticking their clocks plus one
   recurring timer, i.e. the event pattern every simulated run is made of.
   [events_processed] and the makespan pin the dispatch behavior; the
   allocation words price one event. *)
let micro_engine_dispatch () =
  Probe.run ~name:"micro/engine-dispatch" (fun ctx ->
      let eng = Sim.Engine.create ~seed ~num_workers:4 () in
      let ticks = ref 0 in
      let cancel = Sim.Engine.every eng ~start:16 ~interval:16 (fun () -> incr ticks) in
      Sim.Engine.run eng (fun _w ->
          for _ = 1 to 2048 do
            Sim.Engine.advance eng 3
          done);
      cancel ();
      Probe.deti ctx "events_processed" (Sim.Engine.events_processed eng);
      Probe.deti ctx "makespan_cycles" (Sim.Engine.max_time eng);
      Probe.deti ctx "timer_ticks" !ticks)

(* Checkpoint capture at a pause boundary, priced end to end: pause a
   real run mid-flight, serialize the checkpoint through its byte-stable
   codec, then resume and run to completion. The codec length, slice and
   iteration counts pin the capture itself; the resumed makespan equalling
   the uninterrupted one pins the replay (hot-path cost shows up in the
   makespan/overhead metrics of the macro probes, which share the
   executor's pause-check). Effect fibers: no alloc metric. *)
let micro_checkpoint_capture () =
  Probe.run ~name:"micro/checkpoint-capture" ~det_alloc:false (fun ctx ->
      let entry = Workloads.Registry.find "spmv-powerlaw" in
      let rt = { Hbc_core.Rt_config.default with workers = tiny_workers; seed } in
      let (Ir.Program.Any p) = entry.Workloads.Registry.make tiny_scale in
      let full = Sched_run.run (Sched_run.Hbc rt) p in
      let boundary = full.Sim.Run_result.makespan / 2 in
      let paused =
        Sched_run.run ~request:(Hbc_core.Run_request.make ~pause_at:boundary ()) (Sched_run.Hbc rt) p
      in
      let ck =
        match paused.Sim.Run_result.termination with
        | Sim.Run_result.Paused ck -> ck
        | _ -> failwith "checkpoint probe: run did not pause"
      in
      let encoded = Sim.Checkpoint_state.to_string ck in
      let rounds = 256 in
      for _ = 1 to rounds do
        ignore (Sim.Checkpoint_state.to_string ck)
      done;
      let resumed =
        Sched_run.run ~request:(Hbc_core.Run_request.make ~resume_from:ck ()) (Sched_run.Hbc rt) p
      in
      Probe.deti ctx "encodes" rounds;
      Probe.deti ctx "checkpoint_bytes" (String.length encoded);
      Probe.deti ctx "live_slices" (List.length ck.Sim.Checkpoint_state.slices);
      Probe.deti ctx "remaining_iters" (Sim.Checkpoint_state.remaining_iterations ck);
      Probe.deti ctx "resumed_makespan" resumed.Sim.Run_result.makespan;
      Probe.deti ctx "identical"
        (if
           resumed.Sim.Run_result.makespan = full.Sim.Run_result.makespan
           && resumed.Sim.Run_result.fingerprint = full.Sim.Run_result.fingerprint
         then 1
         else 0))

(* The domains backend's dispatch overhead: one worker, deterministic
   poll-count heartbeats, untraced (the backend's lock-free fast path —
   identity critical sections, no-op emission). Single-worker scheduling
   is fully deterministic (the owner pops its own spawned halves in
   order), so promotions and body work gate; wall time is measured by
   benchmark/hbc_bench, not here. No effect fibers run here and slice
   entry allocates nothing beyond the program's own bounds tuples, so the
   minor words repeat exactly and gate too: a per-slice closure or hash
   key shows up as a regression. *)
let micro_domains_dispatch () =
  Probe.run ~name:"micro/domains-dispatch" (fun ctx ->
      let entry = Workloads.Registry.find "spmv-powerlaw" in
      let rt = { Hbc_core.Rt_config.default with workers = 1; seed } in
      let (Ir.Program.Any p) = entry.Workloads.Registry.make tiny_scale in
      let r =
        Sched_run.run
          ~request:(Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ())
          ~beat:(Hb_parallel.Native_run.Every_polls 64) (Sched_run.Hbc rt) p
      in
      Probe.deti ctx "promotions" r.Sim.Run_result.metrics.Sim.Metrics.promotions;
      Probe.deti ctx "work_cycles" r.Sim.Run_result.work_cycles)

(* The chaos-era guarantee on the untraced native fast path: with no
   injector attached and no sink enabled, the backend hooks the scheduler
   hits per scheduling point — steal-veto check, wake probe, emission,
   critical section, charge, and the beat checks of a wall-clock leaf
   poll, latch and poll-count leaf poll — are single loads/stores and
   must allocate NOTHING. The loop's minor words are measured directly
   and gated as a deterministic metric, so the baseline pins them at zero
   and any draw, closure or boxing added to the hot path fails the gate.
   The beat states are built outside the probe, so its whole-probe
   allocation count is unchanged by them. *)
let micro_native_untraced_overhead () =
  let beat source =
    Hb_parallel.Beat.create source ~workers:1
      ~injector:(Sim.Fault_injector.inactive ~num_workers:1)
      ~watchdog_k:Hbc_core.Rt_config.default.Hbc_core.Rt_config.watchdog_k ~on_downgrade:ignore
  in
  (* A 1 us wall beat makes the loop raise and take pending flags too. *)
  let wall = beat (Wall_us 1.0) and polls = beat (Every_polls 4) in
  Probe.run ~name:"micro/native-untraced-overhead" (fun ctx ->
      let b =
        Hb_parallel.Domains_backend.create ~workers:1 ~trace:Obs.Trace.Sink.null ~capture:false
      in
      Hb_parallel.Domains_backend.register ~worker:0;
      let rounds = 65536 in
      let vetoes = ref 0 in
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        if Hb_parallel.Domains_backend.steal_vetoed b then incr vetoes;
        Hb_parallel.Domains_backend.wake_one b;
        Hb_parallel.Domains_backend.emit b Obs.Trace.Mechanism_downgrade;
        Hb_parallel.Domains_backend.critical b ignore;
        Hb_parallel.Domains_backend.charge_push b;
        Hb_parallel.Domains_backend.charge_steal_attempt b;
        ignore (Hb_parallel.Beat.consume wall 0 ~count_poll:true);
        ignore (Hb_parallel.Beat.consume wall 0 ~count_poll:false);
        ignore (Hb_parallel.Beat.consume polls 0 ~count_poll:true)
      done;
      let hot_words = int_of_float (Gc.minor_words () -. w0) in
      Probe.deti ctx "rounds" rounds;
      Probe.deti ctx "vetoes" !vetoes;
      Probe.deti ctx "hot_path_alloc_words" hot_words)

(* The simulator's per-kind overhead attribution: a charge bumps one
   slot of an array indexed by its kind, so a round that charges every
   kind hashes no name and allocates nothing. *)
let micro_overhead_attribution () =
  Probe.run ~name:"micro/overhead-attribution" (fun ctx ->
      let m = Sim.Metrics.create () in
      let kinds = Array.of_list Sim.Metrics.kinds in
      let rounds = 65536 in
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        for j = 0 to Array.length kinds - 1 do
          Sim.Metrics.add_overhead m kinds.(j) (j + 1)
        done
      done;
      let hot_words = int_of_float (Gc.minor_words () -. w0) in
      Probe.deti ctx "charges" (rounds * Array.length kinds);
      Probe.deti ctx "overhead_cycles" m.Sim.Metrics.overhead_cycles;
      Probe.deti ctx "kinds_attributed" (List.length (Sim.Metrics.attribution m));
      Probe.deti ctx "hot_path_alloc_words" hot_words)

let micro () =
  [
    micro_deque ();
    micro_rng ();
    micro_perfect_hash ();
    micro_adaptive_chunking ();
    micro_trace_emission ();
    micro_engine_dispatch ();
    micro_checkpoint_capture ();
    micro_domains_dispatch ();
    micro_native_untraced_overhead ();
    micro_overhead_attribution ();
  ]

(* --------------------------- macro probes ------------------------- *)

let result_metrics ctx (r : Sim.Run_result.t) =
  let m = r.Sim.Run_result.metrics in
  Probe.deti ctx "makespan_cycles" r.Sim.Run_result.makespan;
  Probe.deti ctx "work_cycles" r.Sim.Run_result.work_cycles;
  Probe.deti ctx "overhead_cycles" m.Sim.Metrics.overhead_cycles;
  Probe.deti ctx "promotions" m.Sim.Metrics.promotions;
  Probe.deti ctx "tasks_spawned" m.Sim.Metrics.tasks_spawned;
  Probe.deti ctx "steals" m.Sim.Metrics.steals;
  Probe.deti ctx "steal_attempts" m.Sim.Metrics.steal_attempts;
  Probe.deti ctx "polls" m.Sim.Metrics.polls;
  Probe.deti ctx "heartbeats_detected" m.Sim.Metrics.heartbeats_detected

(* Macro bodies run the effect-handler executor, whose fiber machinery
   allocates nondeterministically (see Probe): no alloc metric. *)
let engine_probe ~name engine bench =
  Probe.run ~name ~det_alloc:false (fun ctx ->
      let entry = Workloads.Registry.find bench in
      let engine = Sched_run.with_machine ~workers:tiny_workers ~seed engine in
      let (Ir.Program.Any p) = entry.Workloads.Registry.make tiny_scale in
      result_metrics ctx (Sched_run.run engine p))

let tpal_chunk bench = (Workloads.Registry.find bench).Workloads.Registry.tpal_chunk

(* --------------------------- P-sweep probes ----------------------- *)

(* Event-engine scaling gate. Each probe drives a pure engine workload
   at P simulated cores and a fixed per-worker iteration count: every
   worker advances by a mixed schedule of cost-model-sized steps
   (50..1073 cycles — the poll/steal/promotion cost range), a recurring
   heartbeat-interval timer fires throughout, and one far-future
   callback stays queued behind every other event for the whole run.
   Unlike the executor macros this path has no effect-handler executor
   fibers, only engine fibers, which allocate deterministically — so
   alloc words gate det here, and a per-event allocation regression in
   the queue fails CI at any P. Events dispatched, work cycles, and
   makespan pin the dispatch behavior itself: a scheduling change that
   alters event counts at P=256 but not P=16 is a scaling regression
   this sweep exists to catch. *)
let p_sweep_iters = 1024

let p_sweep_probe p =
  Probe.run ~name:(Printf.sprintf "macro/p-sweep/engine-p%d" p) (fun ctx ->
      let eng = Sim.Engine.create ~seed ~num_workers:p () in
      let ticks = ref 0 in
      let cancel =
        Sim.Engine.every eng ~start:30_000 ~interval:30_000 (fun () -> incr ticks)
      in
      (* Far past the makespan: never dispatched before the run ends. *)
      Sim.Engine.schedule_at eng ~time:1_000_000_000 (fun () -> ());
      let work = ref 0 in
      Sim.Engine.run eng (fun w ->
          for i = 1 to p_sweep_iters do
            let c = 50 + ((i * ((w land 7) + 7)) land 1023) in
            work := !work + c;
            Sim.Engine.advance eng c
          done);
      cancel ();
      Probe.deti ctx "events_dispatched" (Sim.Engine.events_processed eng);
      Probe.deti ctx "work_cycles" !work;
      Probe.deti ctx "makespan_cycles" (Sim.Engine.max_time eng);
      Probe.deti ctx "timer_ticks" !ticks)

(* --------------------------- serve probes ------------------------- *)

(* Multi-tenant serving: tail latency and goodput are deterministic
   functions of the seed (virtual time end to end), so p50/p99 sojourn and
   goodput-under-overload are gated like any other det metric. Inner runs
   use effect fibers: no alloc metric. *)
let serve_probe ~name mk =
  Probe.run ~name ~det_alloc:false (fun ctx ->
      let r = Serve.Server.run (mk ()) in
      let s = r.Serve.Server.stats in
      Probe.deti ctx "submitted" s.Serve.Server.submitted;
      Probe.deti ctx "completed" s.Serve.Server.completed;
      Probe.deti ctx "shed" s.Serve.Server.shed;
      Probe.deti ctx "deadline_exceeded" s.Serve.Server.deadline_exceeded;
      Probe.deti ctx "failed" s.Serve.Server.failed;
      Probe.deti ctx "breaker_opens" s.Serve.Server.breaker_opens;
      Probe.deti ctx "makespan_cycles" s.Serve.Server.makespan;
      Probe.det ctx "sojourn_p50_cycles" s.Serve.Server.sojourn_p50;
      Probe.det ctx "sojourn_p99_cycles" s.Serve.Server.sojourn_p99;
      Probe.det ctx "goodput" s.Serve.Server.goodput)

(* Light load: everything admits and completes; pins the happy-path tail. *)
let serve_steady () =
  serve_probe ~name:"serve/steady-tail" (fun () ->
      {
        Serve.Server.default_config with
        Serve.Server.tenants =
          [|
            {
              Serve.Server.tenant_default with
              Serve.Server.arrival = Serve.Arrival.Poisson { mean_gap = 60_000.0 };
              jobs = 4;
            };
            {
              Serve.Server.tenant_default with
              Serve.Server.weight = 2;
              arrival = Serve.Arrival.Burst { period = 120_000; size = 2 };
              jobs = 4;
              workloads = [ "mandelbrot" ];
              scale = 0.01;
            };
          |];
        seed = 11;
      })

(* Sustained overload: adversarial bursts against a short queue, tight
   deadlines, and one budget-starved tenant that trips its breaker. Pins
   the degradation path: shed counts, deadline accounting, breaker opens,
   and goodput under overload. *)
let serve_overload () =
  serve_probe ~name:"serve/overload-goodput" (fun () ->
      {
        Serve.Server.default_config with
        Serve.Server.tenants =
          [|
            {
              Serve.Server.tenant_default with
              Serve.Server.arrival = Serve.Arrival.Adversarial { quiet = 30_000; burst = 6 };
              jobs = 12;
              deadline = Some (40_000, 120_000);
            };
            {
              Serve.Server.tenant_default with
              Serve.Server.weight = 3;
              arrival = Serve.Arrival.Poisson { mean_gap = 8_000.0 };
              jobs = 8;
              workloads = [ "spmv-powerlaw" ];
              deadline = Some (60_000, 200_000);
            };
            {
              Serve.Server.tenant_default with
              Serve.Server.arrival = Serve.Arrival.Burst { period = 25_000; size = 4 };
              jobs = 8;
              cycle_budget = Some (2_000, 4_000);
            };
          |];
        queue_capacity = 6;
        seed = 7;
      })

(* Preempt–resume serving: tight deadlines under [Pause_and_requeue], so
   every job is checkpointed and resumed many times yet still completes.
   Pins the checkpoint/resume counts and the preempted tail. *)
let serve_preempt () =
  Probe.run ~name:"serve/preempt-resume" ~det_alloc:false (fun ctx ->
      let r =
        Serve.Server.run
          {
            Serve.Server.default_config with
            Serve.Server.tenants =
              [|
                {
                  Serve.Server.tenant_default with
                  Serve.Server.arrival = Serve.Arrival.Burst { period = 30_000; size = 3 };
                  jobs = 3;
                  scale = 0.01;
                  workers_wanted = 2;
                  deadline = Some (8_000, 8_000);
                };
              |];
            seed = 42;
            preempt = Serve.Server.Pause_and_requeue;
            max_preempts = 50;
          }
      in
      let s = r.Serve.Server.stats in
      Probe.deti ctx "submitted" s.Serve.Server.submitted;
      Probe.deti ctx "completed" s.Serve.Server.completed;
      Probe.deti ctx "checkpointed" s.Serve.Server.checkpointed;
      Probe.deti ctx "resumed" s.Serve.Server.resumed;
      Probe.deti ctx "makespan_cycles" s.Serve.Server.makespan;
      Probe.det ctx "sojourn_p50_cycles" s.Serve.Server.sojourn_p50)

let macro () =
  [
    (* Figs. 4-5: nested parallelism on the irregular suite. *)
    engine_probe ~name:"macro/fig4-5/spmv-powerlaw-hbc" Sched_run.hbc "spmv-powerlaw";
    (* Figs. 6-7: the TPAL runtime (static chunks, ping thread, inline
       leftover) on its own suite. *)
    engine_probe ~name:"macro/fig6-7/plus-reduce-array-tpal"
      (Sched_run.tpal ~chunk:(tpal_chunk "plus-reduce-array"))
      "plus-reduce-array";
    (* Figs. 8, 10, 11: chunking mechanisms under software polling. *)
    engine_probe ~name:"macro/fig8-10-11/mandelbrot-static-chunk"
      (Sched_run.Hbc
         {
           Hbc_core.Rt_config.hbc with
           chunk = Hbc_core.Compiled.Static (tpal_chunk "mandelbrot");
         })
      "mandelbrot";
    (* Fig. 9: interrupt-based signaling (kernel-module broadcast), under
       adaptive chunking rather than Fig. 9's static chunk. *)
    engine_probe ~name:"macro/fig9/spmv-arrowhead-kernel-module"
      (Sched_run.Hbc
         { Hbc_core.Rt_config.hbc with mechanism = Hbc_core.Rt_config.Interrupt_kernel_module })
      "spmv-arrowhead";
    (* Figs. 12-13: adaptive chunking (the default HBC configuration). *)
    engine_probe ~name:"macro/fig12-13/kmeans-adaptive" Sched_run.hbc "kmeans";
    (* Figs. 14-15: the hand-written irregular graph kernels. *)
    engine_probe ~name:"macro/fig14-15/bfs-hbc" Sched_run.hbc "bfs";
    (* Fig. 16: regular workloads against OpenMP static. *)
    engine_probe ~name:"macro/fig16/srad-omp-static"
      (Sched_run.Openmp (Baselines.Openmp.static ()))
      "srad";
  ]
  @ List.map p_sweep_probe [ 16; 64; 256; 1024 ]
  @ [ serve_steady (); serve_overload (); serve_preempt () ]

let all () = micro () @ macro ()

let report ?(notes = []) ?probes ~label () =
  let provenance =
    [
      ("suite_scale", Printf.sprintf "%.3f" tiny_scale);
      ("suite_workers", string_of_int tiny_workers);
      ("suite_seed", string_of_int seed);
    ]
  in
  let probes = match probes with Some ps -> ps | None -> all () in
  Report.make ~notes:(notes @ provenance) ~label probes
