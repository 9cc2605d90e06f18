(* Command-line driver over the experiment harness: reproduce any of the
   paper's figures (4-16), list benchmarks, or run a single benchmark under a
   chosen executor. *)

open Cmdliner

let scale_arg =
  let doc = "Input-size multiplier (1.0 = documented defaults)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let workers_arg =
  let doc = "Number of simulated cores (the paper uses 64)." in
  Arg.(value & opt int 64 & info [ "workers"; "w" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let verbose_arg =
  let doc = "Log each simulation run to stderr as it starts." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let trial_budget_arg =
  let doc =
    "Per-trial virtual-cycle watchdog budget: a trial whose simulation exceeds it aborts with a \
     structured timeout instead of livelocking the campaign."
  in
  Arg.(value & opt (some int) None & info [ "trial-budget" ] ~docv:"CYCLES" ~doc)

let wall_budget_arg =
  let doc = "Per-trial wall-clock guard in seconds, polled from inside the simulator." in
  Arg.(value & opt (some float) None & info [ "wall-budget" ] ~docv:"SECONDS" ~doc)

let max_retries_arg =
  let doc = "Bounded retries (with exponential backoff) for transient trial failures." in
  Arg.(value & opt int 1 & info [ "max-retries" ] ~docv:"N" ~doc)

let config_term =
  let make scale workers seed verbose trial_budget wall_budget max_retries =
    {
      Experiments.Harness.scale;
      workers;
      seed;
      verbose;
      trial_budget;
      wall_budget;
      max_retries;
      retry_backoff = Experiments.Harness.default_config.Experiments.Harness.retry_backoff;
    }
  in
  Term.(
    const make $ scale_arg $ workers_arg $ seed_arg $ verbose_arg $ trial_budget_arg
    $ wall_budget_arg $ max_retries_arg)

let default_journal = "hbc-journal.jsonl"

let journal_term =
  let path =
    let doc =
      Printf.sprintf
        "Journal completed trials to $(docv) (one JSON line per trial, flushed). Without \
         $(b,--resume) the file is truncated first. Implied (as %s) by $(b,--resume)."
        default_journal
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH" ~doc)
  in
  let resume =
    let doc =
      "Resume from the journal: trials already recorded are replayed from disk instead of \
       re-run; corrupt (torn) trailing lines from a killed run are dropped."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let make path resume =
    match (path, resume) with
    | None, false -> None
    | path, resume -> Some (Option.value path ~default:default_journal, resume)
  in
  Term.(const make $ path $ resume)

(* Install the campaign journal around a command, closing it even when the
   command exits through an exception. *)
let with_journal spec f =
  match spec with
  | None -> f ()
  | Some (path, resume) ->
      let j = Experiments.Checkpoint.create ~path ~resume in
      Experiments.Harness.set_journal (Some j);
      Fun.protect
        ~finally:(fun () ->
          Experiments.Harness.set_journal None;
          Experiments.Checkpoint.close j)
        f

(* Every figure command, the ablations and [all] end here: exit 2 when any
   trial's output diverged from the sequential reference. *)
let exit_on_divergence () = exit (Experiments.Run_all.exit_code ())

let fig_cmd (f : Experiments.Figure.t) =
  let doc = f.Experiments.Figure.caption in
  let run config journal =
    with_journal journal (fun () ->
        print_string (Experiments.Run_all.render_one config f);
        print_string (Experiments.Run_all.campaign_summary ()));
    exit_on_divergence ()
  in
  Cmd.v (Cmd.info f.Experiments.Figure.id ~doc) Term.(const run $ config_term $ journal_term)

let all_cmd =
  let doc = "Reproduce every figure (4-16)." in
  let parallel_trials =
    let doc =
      "Warm trial simulations across $(docv) OCaml domains before the sequential replay pass. \
       Output (figures, journal) is byte-identical to the sequential campaign; only wall time \
       changes. 1 = fully sequential."
    in
    Arg.(value & opt int 1 & info [ "parallel-trials" ] ~docv:"N" ~doc)
  in
  let run config journal domains =
    with_journal journal (fun () ->
        print_string (Experiments.Run_all.render_all_parallel config ~domains));
    exit_on_divergence ()
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ config_term $ journal_term $ parallel_trials)

let list_cmd =
  let doc = "List the benchmarks (Table 1) with their metadata." in
  let run () =
    let table =
      Report.Table.create ~title:"Benchmarks (Table 1)"
        ~columns:[ "name"; "source"; "regularity"; "TPAL suite"; "TPAL chunk" ]
    in
    List.iter
      (fun e ->
        Report.Table.add_row table
          [
            e.Workloads.Registry.name;
            e.Workloads.Registry.source;
            (if e.Workloads.Registry.regular then "regular" else "irregular");
            (if e.Workloads.Registry.tpal_suite then "yes" else "no");
            string_of_int e.Workloads.Registry.tpal_chunk;
          ])
      Workloads.Registry.all;
    Report.Table.print table
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let fault_plan_term =
  let drop =
    let doc = "Fault injection: probability (0-1) that a heartbeat delivery is dropped." in
    Arg.(value & opt float 0.0 & info [ "fault-drop" ] ~docv:"P" ~doc)
  in
  let jitter =
    let doc = "Fault injection: maximum extra heartbeat delivery delay in cycles." in
    Arg.(value & opt int 0 & info [ "fault-jitter" ] ~docv:"CYCLES" ~doc)
  in
  let steal =
    let doc = "Fault injection: probability (0-1) that a steal attempt starts a failure burst." in
    Arg.(value & opt float 0.0 & info [ "fault-steal" ] ~docv:"P" ~doc)
  in
  let stall =
    let doc = "Fault injection: per-task probability (0-1) of an OS-preemption stall." in
    Arg.(value & opt float 0.0 & info [ "fault-stall" ] ~docv:"P" ~doc)
  in
  let wakeup =
    let doc =
      "Fault injection: probability (0-1) that a parked-worker wakeup signal is suppressed \
       (domains backend; the wakeup is owed, and the next wake, idle worker or shutdown \
       re-issues it)."
    in
    Arg.(value & opt float 0.0 & info [ "fault-wakeup" ] ~docv:"P" ~doc)
  in
  let spolls =
    let doc =
      "Fault injection: stall window in polls for the domains backend (defaults to 64 when \
       $(b,--fault-stall) is set; the cycle-counted window only exists in the simulator)."
    in
    Arg.(value & opt int 0 & info [ "fault-stall-polls" ] ~docv:"N" ~doc)
  in
  let fseed =
    let doc = "Fault injection: seed of the fault schedule (defaults to the run seed)." in
    Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  let make drop jitter steal stall wakeup spolls fseed seed =
    let plan =
      {
        Sim.Fault_plan.seed = Option.value fseed ~default:seed;
        beat_drop_prob = drop;
        beat_jitter = jitter;
        steal_fail_prob = steal;
        steal_fail_burst = (if steal > 0.0 then 3 else 0);
        stall_prob = stall;
        stall_cycles = (if stall > 0.0 then 5_000 else 0);
        stall_polls = (if spolls > 0 then spolls else if stall > 0.0 then 64 else 0);
        delay_wakeup_prob = wakeup;
      }
    in
    if Sim.Fault_plan.is_zero plan then None else Some plan
  in
  Term.(const make $ drop $ jitter $ steal $ stall $ wakeup $ spolls $ fseed $ seed_arg)

let run_cmd =
  let doc =
    "Run one benchmark under one executor and print its statistics. The $(b,--fault-*) options \
     inject a deterministic fault plan into the hbc executors (seed-reproducible; outputs still \
     match the sequential reference; on the domains backend the portable kinds also apply — \
     see $(b,--beat)). $(b,--trace) additionally captures every scheduler event and exports a \
     Chrome trace_event / Perfetto JSON file. $(b,--pause-at) checkpoints the run cooperatively \
     at a boundary; $(b,--resume-from) continues it to a byte-identical final result (on \
     domains: $(b,--beat polls:N) with one worker)."
  in
  let bench_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name.")
  in
  let exec_arg =
    let doc = Printf.sprintf "Executor: %s." (String.concat ", " Sched_run.names) in
    Arg.(value & opt string "hbc" & info [ "executor"; "e" ] ~docv:"EXEC" ~doc)
  in
  let backend_arg =
    let doc =
      "Scheduler backend: $(b,sim) (the virtual-time engine; the default) or $(b,domains) (real \
       OCaml 5 domains via the native runner — same policy core, wall-clock heartbeats). The \
       domains backend supports the seq, hbc, and tpal executors; makespan is wall microseconds \
       (seq prints its simulated cycles). Portable fault kinds (drop/steal/stall-polls/wakeup) \
       inject natively; pause/resume needs $(b,--beat polls:N) and one worker."
    in
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let trace_arg =
    let doc =
      "Capture the full scheduler event trace and write it as Chrome trace_event JSON to \
       $(docv) (load in ui.perfetto.dev or chrome://tracing)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)
  in
  let sanitize_arg =
    let doc =
      "Run under the online scheduler sanitizer: every trace event is checked against the work \
       conservation, deque discipline, promotion policy, chunk-rule, and clock invariants; a \
       one-line verdict is printed and a non-zero exit reports violations."
    in
    Arg.(value & flag & info [ "sanitize" ] ~doc)
  in
  let pause_arg =
    let doc =
      "Cooperatively pause the run at the first event at or past $(docv) virtual cycles and \
       write the serializable checkpoint to the $(b,--checkpoint) path (hbc executors only)."
    in
    Arg.(value & opt (some int) None & info [ "pause-at" ] ~docv:"CYCLE" ~doc)
  in
  let ckpt_arg =
    let doc = "Where $(b,--pause-at) writes the checkpoint JSON." in
    Arg.(value & opt string "hbc-checkpoint.json" & info [ "checkpoint" ] ~docv:"PATH" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume a previously paused run from the checkpoint in $(docv): the job is replayed to \
       the boundary with trace emission muted, byte-verified against the checkpoint, then \
       continued live — the final result is byte-identical to an uninterrupted run."
    in
    Arg.(value & opt (some string) None & info [ "resume-from" ] ~docv:"PATH" ~doc)
  in
  let beat_arg =
    let doc =
      "Heartbeat source for $(b,--backend domains): $(b,wall:US) (interval timer, microseconds; \
       the default is wall:100) or $(b,polls:N) (a deterministic beat every N leaf polls — \
       reproducible schedules; required for native pause/resume)."
    in
    Arg.(value & opt (some string) None & info [ "beat" ] ~docv:"SRC" ~doc)
  in
  let run config bench executor backend_s fault_plan trace_path sanitize pause_at ckpt_path
      resume_path beat_s journal =
    with_journal journal @@ fun () ->
    let beat =
      Option.map
        (fun spec ->
          let fail () =
            Printf.eprintf "run: --beat wants polls:N or wall:US, not %s\n" spec;
            exit 1
          in
          match String.split_on_char ':' spec with
          | [ "polls"; n ] -> (
              match int_of_string_opt n with
              | Some n when n > 0 -> Hb_parallel.Native_run.Every_polls n
              | _ -> fail ())
          | [ "wall"; us ] -> (
              match float_of_string_opt us with
              | Some us when Float.is_finite us && us > 0.0 -> Hb_parallel.Native_run.Wall_us us
              | _ -> fail ())
          | _ -> fail ())
        beat_s
    in
    let backend =
      match Sched.Policy.backend_kind_of_string backend_s with
      | Ok b -> b
      | Error e ->
          Printf.eprintf "run: %s\n" e;
          exit 1
    in
    let entry =
      try Workloads.Registry.find bench
      with Not_found ->
        Printf.eprintf "unknown benchmark %s; try `hbc_repro list`\n" bench;
        exit 1
    in
    let resume_from =
      Option.map
        (fun path ->
          let contents =
            try
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            with Sys_error msg ->
              Printf.eprintf "run: cannot read checkpoint %s: %s\n" path msg;
              exit 2
          in
          match Sim.Checkpoint_state.of_string contents with
          | Ok ck -> ck
          | Error e ->
              Printf.eprintf "run: %s is not a checkpoint: %s\n" path e;
              exit 2)
        resume_path
    in
    let native = backend = Sched.Policy.Domains in
    let direct = pause_at <> None || resume_from <> None in
    let named = Sched_run.of_name ~chunk:entry.Workloads.Registry.tpal_chunk executor in
    if native && not (List.mem executor [ "seq"; "hbc"; "tpal" ]) then begin
      Printf.eprintf "run: --backend domains supports seq, hbc, and tpal, not %s\n" executor;
      exit 2
    end;
    (match named with
    | Some (_, Sched_run.Hbc _) -> ()
    | _ when direct && not native ->
        Printf.eprintf "run: --pause-at/--resume-from need an hbc executor, not %s\n" executor;
        exit 2
    | _ -> ());
    let tag, engine =
      match named with
      | Some (tag, engine) ->
          ( tag,
            Sched_run.with_machine ~workers:config.Experiments.Harness.workers
              ~seed:config.Experiments.Harness.seed engine )
      | None ->
          Printf.eprintf "unknown executor %s\n" executor;
          exit 1
    in
    let base = Experiments.Harness.baseline config entry in
    let san =
      if sanitize then
        Some (Sanitizer.Checker.create (Sanitizer.Checker.config_of_rt Hbc_core.Rt_config.default))
      else None
    in
    (* The sanitizer sink tees with a capture sink when --trace is also
       given: checking costs no virtual time and drops no events. *)
    let sink =
      match (san, Option.map (fun _ -> Obs.Trace.Sink.stream ()) trace_path) with
      | None, s -> s
      | Some sa, None -> Some (Sanitizer.Checker.sink sa)
      | Some sa, Some s -> Some (Obs.Trace.Sink.tee (Sanitizer.Checker.sink sa) s)
    in
    let request =
      Hbc_core.Run_request.make ~backend ?fault_plan ?trace:sink ~sanitize ?pause_at ?resume_from
        ()
    in
    let finish_sanitizer (r : Sim.Run_result.t) =
      match san with
      | None -> ()
      | Some sa ->
          Sanitizer.Checker.finish sa;
          let verdict = Sanitizer.Checker.summary sa in
          r.Sim.Run_result.sanitizer <- Some verdict;
          Printf.printf "sanitizer        : %s\n" verdict;
          if not (Sanitizer.Checker.ok sa) then begin
            List.iter
              (fun (v : Sanitizer.Checker.violation) ->
                Printf.eprintf "  [%s] t=%d w=%d %s\n"
                  (Sanitizer.Checker.invariant_name v.Sanitizer.Checker.invariant)
                  v.Sanitizer.Checker.time v.Sanitizer.Checker.worker v.Sanitizer.Checker.message)
              (Sanitizer.Checker.violations sa);
            exit 3
          end
    in
    let export_trace (r : Sim.Run_result.t) =
      match trace_path with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc
                (Obs.Perfetto.to_string
                   ~process_name:(entry.Workloads.Registry.name ^ "/" ^ executor)
                   r.Sim.Run_result.trace));
          Printf.printf "trace            : %d events -> %s\n"
            (List.length r.Sim.Run_result.trace) path
    in
    if native then begin
      (* Native runs bypass the trial journal: wall-clock makespans are not
         reproducible measurements, and the harness's virtual-time stats do
         not apply. Validation is still against the simulated sequential
         reference — fingerprints are backend-independent. *)
      let (Ir.Program.Any p) = entry.Workloads.Registry.make config.Experiments.Harness.scale in
      let r = Sched_run.run ~request ?beat engine p in
      Printf.printf "benchmark        : %s (%s on %s)\n" entry.Workloads.Registry.name executor
        backend_s;
      Printf.printf "baseline work    : %d cycles (simulated reference)\n"
        base.Sim.Run_result.work_cycles;
      (match engine with
      | Sched_run.Serial ->
          (* The sequential reference never enters the domains backend: its
             makespan is simulated cycles, with no wall-clock reading. *)
          Printf.printf "makespan         : %d cycles (simulated serial reference)\n"
            r.Sim.Run_result.makespan
      | _ ->
          Printf.printf "makespan         : %d us wall on %d domains\n" r.Sim.Run_result.makespan
            (Sched_run.workers engine));
      Printf.printf "body work        : %d cycles\n" r.Sim.Run_result.work_cycles;
      Printf.printf "promotions       : %d\n" r.Sim.Run_result.metrics.Sim.Metrics.promotions;
      (match fault_plan with
      | None -> ()
      | Some plan ->
          let m = r.Sim.Run_result.metrics in
          Printf.printf "fault plan       : %s\n" (Sim.Fault_plan.to_string plan);
          Printf.printf
            "faults injected  : %d (beats dropped %d; steals failed %d; stalls %d for %d polls; \
             wakeups delayed %d)\n"
            (Sim.Metrics.faults_injected m) m.Sim.Metrics.faults_beats_dropped
            m.Sim.Metrics.faults_steals_failed m.Sim.Metrics.faults_stalls
            m.Sim.Metrics.faults_stall_cycles m.Sim.Metrics.faults_wakeups_delayed;
          Printf.printf "downgrades       : %d" (Sim.Metrics.downgrade_count m);
          List.iter
            (fun (w, t) -> Printf.printf " [worker %d at %d]" w t)
            (Obs.Trace_query.downgrades r.Sim.Run_result.trace);
          print_newline ());
      export_trace r;
      (match r.Sim.Run_result.termination with
      | Sim.Run_result.Paused ck ->
          let oc = open_out ckpt_path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Sim.Checkpoint_state.to_string ck));
          Printf.printf "paused           : %s\n" (Sim.Checkpoint_state.describe ck);
          Printf.printf "checkpoint       : digest %s -> %s\n" (Sim.Checkpoint_state.digest ck)
            ckpt_path;
          Printf.printf "resume           : hbc_repro run %s -e %s --backend domains -w 1 %s \
--resume-from %s\n"
            bench executor
            (match beat_s with Some b -> "--beat " ^ b | None -> "")
            ckpt_path;
          finish_sanitizer r
      | Sim.Run_result.Guard_aborted reason ->
          Printf.printf "aborted          : %s\n" reason;
          finish_sanitizer r;
          exit 4
      | _ ->
          let valid = Sim.Run_result.fingerprints_close base r in
          Printf.printf "output valid     : %b\n" valid;
          finish_sanitizer r;
          if not valid then exit 4)
    end
    else begin
    let tag_of t =
      let t = if fault_plan = None then t else t ^ "+faults" in
      let t = if trace_path = None then t else t ^ "+trace" in
      let t = if pause_at = None then t else t ^ "+pause" in
      let t = if resume_from = None then t else t ^ "+resume" in
      if sanitize then t ^ "+sanitize" else t
    in
    (* A paused (or resumed) run is not a campaign trial: the harness
       would journal it as a poisoned entry and flag the pause as an
       invariant error. Drive the engine directly instead. *)
    let run_direct () =
      let (Ir.Program.Any p) = entry.Workloads.Registry.make config.Experiments.Harness.scale in
      let r = Sched_run.run ~request engine p in
      let valid =
        match r.Sim.Run_result.termination with
        | Sim.Run_result.Finished -> Sim.Run_result.fingerprints_close base r
        | _ -> false
      in
      {
        Experiments.Harness.result = r;
        speedup = Sim.Run_result.speedup ~baseline:base r;
        valid;
        error = None;
      }
    in
    let outcome =
      match engine with
      | Sched_run.Serial ->
          { Experiments.Harness.result = base; speedup = 1.0; valid = true; error = None }
      | _ when direct -> run_direct ()
      | _ -> Experiments.Harness.run config ~tag:(tag_of tag) ~request engine entry
    in
    let r = outcome.Experiments.Harness.result in
    let m = r.Sim.Run_result.metrics in
    Printf.printf "benchmark        : %s (%s)\n" entry.Workloads.Registry.name executor;
    Printf.printf "baseline work    : %d cycles\n" base.Sim.Run_result.work_cycles;
    Printf.printf "makespan         : %d cycles (%.3f simulated ms)\n" r.Sim.Run_result.makespan
      (1000.0 *. Sim.Cost_model.seconds_of_cycles Sim.Cost_model.default r.Sim.Run_result.makespan);
    Printf.printf "speedup          : %.2fx on %d workers\n" outcome.Experiments.Harness.speedup
      config.Experiments.Harness.workers;
    Printf.printf "output valid     : %b\n" outcome.Experiments.Harness.valid;
    Printf.printf "promotions       : %d (levels:" m.Sim.Metrics.promotions;
    Array.iteri
      (fun l n -> if n > 0 then Printf.printf " L%d=%d" l n)
      m.Sim.Metrics.promotions_by_level;
    Printf.printf ")\n";
    Printf.printf "tasks spawned    : %d (leftovers run: %d)\n" m.Sim.Metrics.tasks_spawned
      m.Sim.Metrics.leftover_tasks_run;
    Printf.printf "steals           : %d of %d attempts\n" m.Sim.Metrics.steals
      m.Sim.Metrics.steal_attempts;
    Printf.printf "heartbeats       : %d detected / %d generated (%d missed)\n"
      m.Sim.Metrics.heartbeats_detected m.Sim.Metrics.heartbeats_generated
      m.Sim.Metrics.heartbeats_missed;
    Printf.printf "polls            : %d\n" m.Sim.Metrics.polls;
    Printf.printf "overhead cycles  : %d\n" m.Sim.Metrics.overhead_cycles;
    List.iter (fun (k, v) -> Printf.printf "  %-16s %d\n" k v) (Sim.Metrics.attribution m);
    (match fault_plan with
    | None -> ()
    | Some plan ->
        Printf.printf "fault plan       : %s\n" (Sim.Fault_plan.to_string plan);
        Printf.printf
          "faults injected  : %d (beats dropped %d, delayed %d; steals failed %d; stalls %d for \
           %d cycles)\n"
          (Sim.Metrics.faults_injected m) m.Sim.Metrics.faults_beats_dropped
          m.Sim.Metrics.faults_beats_delayed m.Sim.Metrics.faults_steals_failed
          m.Sim.Metrics.faults_stalls m.Sim.Metrics.faults_stall_cycles;
        Printf.printf "downgrades       : %d" (Sim.Metrics.downgrade_count m);
        List.iter
          (fun (w, t) -> Printf.printf " [worker %d at %d]" w t)
          (Obs.Trace_query.downgrades r.Sim.Run_result.trace);
        print_newline ());
    export_trace r;
    (match outcome.Experiments.Harness.error with
    | Some e ->
        Printf.printf "trial error      : %s\n" (Experiments.Trial_error.to_string e)
    | None -> ());
    (match r.Sim.Run_result.termination with
    | Sim.Run_result.Paused ck ->
        let oc = open_out ckpt_path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Sim.Checkpoint_state.to_string ck));
        Printf.printf "paused           : %s\n" (Sim.Checkpoint_state.describe ck);
        Printf.printf "checkpoint       : digest %s -> %s\n" (Sim.Checkpoint_state.digest ck)
          ckpt_path;
        Printf.printf "resume           : hbc_repro run %s -e %s --resume-from %s\n" bench
          executor ckpt_path
    | _ -> ());
    if r.Sim.Run_result.dnf then print_endline "run DID NOT FINISH (virtual-time cap)";
    finish_sanitizer r
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ config_term $ bench_arg $ exec_arg $ backend_arg $ fault_plan_term $ trace_arg
      $ sanitize_arg $ pause_arg $ ckpt_arg $ resume_arg $ beat_arg $ journal_term)

let asm_cmd =
  let doc =
    "Show the compiler and linker artifacts for a benchmark: nesting tree, leftover tasks, \
     pseudo-assembly, and the rollforward twins and tables."
  in
  let bench_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name.")
  in
  let mode_arg =
    let doc = "Linker mode: polling or interrupts." in
    Arg.(value & opt string "interrupts" & info [ "mode"; "m" ] ~docv:"MODE" ~doc)
  in
  let run bench mode =
    let entry =
      try Workloads.Registry.find bench
      with Not_found ->
        Printf.eprintf "unknown benchmark %s; try `hbc_repro list`\n" bench;
        exit 1
    in
    let (Ir.Program.Any p) = entry.Workloads.Registry.make 0.05 in
    let compiled = Hbc_core.Pipeline.compile_program p in
    List.iter
      (fun (_, nest) ->
        Printf.printf "=== nest %s ===\n" nest.Hbc_core.Compiled.source_name;
        Printf.printf "--- loop nesting tree ---\n%s"
          (Format.asprintf "%a" Ir.Nesting_tree.pp nest.Hbc_core.Compiled.tree);
        Printf.printf "--- leftover tasks (%d) ---\n" (Array.length nest.Hbc_core.Compiled.leftovers);
        Array.iter
          (fun (l : Hbc_core.Compiled.leftover) ->
            Printf.printf "  (heartbeat in %d, split %d): %s\n" l.Hbc_core.Compiled.li
              l.Hbc_core.Compiled.lj
              (String.concat "; "
                 (List.map
                    (function
                      | Hbc_core.Compiled.Increase_iv o -> Printf.sprintf "iv[%d]++" o
                      | Hbc_core.Compiled.Call_slice o -> Printf.sprintf "slice(%d)" o
                      | Hbc_core.Compiled.Tail_work { of_; after } ->
                          Printf.sprintf "tail(%d after %d)" of_ after)
                    l.Hbc_core.Compiled.steps)))
          nest.Hbc_core.Compiled.leftovers;
        match mode with
        | "polling" ->
            let a = Hbc_core.Linker.link Hbc_core.Linker.Software_polling nest in
            Printf.printf "--- linked image (software polling, %d poll sites) ---\n%s\n"
              a.Hbc_core.Linker.polling_sites
              (Hbc_core.Pseudo_asm.to_string a.Hbc_core.Linker.listing)
        | _ -> (
            let a = Hbc_core.Linker.link Hbc_core.Linker.Interrupts nest in
            match a.Hbc_core.Linker.rollforward with
            | Some rf ->
                Printf.printf "--- source twin (polls elided) ---\n%s\n"
                  (Hbc_core.Pseudo_asm.to_string rf.Hbc_core.Rollforward.source);
                Printf.printf "--- destination twin ---\n%s\n"
                  (Hbc_core.Pseudo_asm.to_string rf.Hbc_core.Rollforward.destination);
                Printf.printf "--- rollforward table (%d entries) ---\n"
                  (List.length rf.Hbc_core.Rollforward.table);
                List.iter
                  (fun (src, dst) ->
                    Printf.printf "  %s (0x%x) -> %s (0x%x)\n" src
                      (Option.value ~default:0 (Hbc_core.Rollforward.lookup_address rf src))
                      dst
                      (Option.value ~default:0 (Hbc_core.Rollforward.lookup_address rf dst)))
                  rf.Hbc_core.Rollforward.table
            | None -> ()))
      compiled.Hbc_core.Pipeline.nests
  in
  Cmd.v (Cmd.info "asm" ~doc) Term.(const run $ bench_arg $ mode_arg)

let ablation_cmd =
  let doc =
    "Run ablation/sensitivity studies (leftover-task, promotion-policy, chunk-transferring, \
     leftover-pairs, heartbeat-rate, ac-window, worker-scaling, hybrid, or `all`)."
  in
  let which_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"STUDY" ~doc:"Study name or `all`.")
  in
  let run config journal which =
    let studies =
      if which = "all" then Experiments.Ablations.all
      else
        match List.assoc_opt which Experiments.Ablations.all with
        | Some f -> [ (which, f) ]
        | None ->
            Printf.eprintf "unknown study %s; available: %s\n" which
              (String.concat ", " (List.map fst Experiments.Ablations.all));
            exit 1
    in
    with_journal journal (fun () ->
        List.iter
          (fun (name, f) -> Printf.printf "== ablation: %s ==\n%s\n\n" name (f config))
          studies;
        match Experiments.Harness.validation_failures () with
        | [] -> ()
        | fails ->
            Printf.printf "VALIDATION FAILURES: %s\n"
              (String.concat ", " (List.map (fun (b, t) -> b ^ "/" ^ t) fails)));
    exit_on_divergence ()
  in
  Cmd.v (Cmd.info "ablations" ~doc) Term.(const run $ config_term $ journal_term $ which_arg)

let timeline_cmd =
  let doc = "Render a per-worker execution timeline (ASCII gantt) for one benchmark under HBC." in
  let bench_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name.")
  in
  let run config bench =
    let entry =
      try Workloads.Registry.find bench
      with Not_found ->
        Printf.eprintf "unknown benchmark %s; try `hbc_repro list`\n" bench;
        exit 1
    in
    let (Ir.Program.Any p) = entry.Workloads.Registry.make config.Experiments.Harness.scale in
    let engine =
      Sched_run.with_machine ~workers:config.Experiments.Harness.workers
        ~seed:config.Experiments.Harness.seed Sched_run.hbc
    in
    let request =
      Hbc_core.Run_request.make
        ~trace:
          (Obs.Trace.Sink.stream
             ~keep:(function Obs.Trace.Interval _ -> true | _ -> false)
             ())
        ()
    in
    let r = Sched_run.run ~request engine p in
    print_string
      (Report.Gantt.render ~workers:config.Experiments.Harness.workers
         ~makespan:r.Sim.Run_result.makespan r.Sim.Run_result.trace)
  in
  Cmd.v (Cmd.info "timeline" ~doc) Term.(const run $ config_term $ bench_arg)

let trace_lint_cmd =
  let doc =
    "Validate an exported trace file: well-formed Chrome trace_event JSON with at least one \
     promotion and one steal event (used by check.sh as an end-to-end probe)."
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"Trace JSON file.")
  in
  let run path =
    let contents =
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error msg ->
        Printf.eprintf "trace-lint: cannot read %s: %s\n" path msg;
        exit 1
    in
    let j =
      match Obs.Json.parse contents with
      | j -> j
      | exception Obs.Json.Parse_error msg ->
          Printf.eprintf "trace-lint: %s is not valid JSON: %s\n" path msg;
          exit 1
    in
    let events =
      match j with
      | Obs.Json.Obj fields -> (
          match Obs.Json.mem "traceEvents" fields with
          | Some (Obs.Json.Arr evs) -> evs
          | _ ->
              Printf.eprintf "trace-lint: %s has no traceEvents array\n" path;
              exit 1)
      | _ ->
          Printf.eprintf "trace-lint: %s top level is not an object\n" path;
          exit 1
    in
    let count pred =
      List.length
        (List.filter
           (function
             | Obs.Json.Obj fields -> (
                 match Obs.Json.get_str "name" fields with Some n -> pred n | None -> false)
             | _ -> false)
           events)
    in
    let promotions = count (String.equal "promotion") in
    let steals = count (fun n -> n = "steal-attempt" || n = "steal-success") in
    Printf.printf "trace-lint: %s: %d events, %d promotions, %d steal events\n" path
      (List.length events) promotions steals;
    if promotions = 0 || steals = 0 then begin
      Printf.eprintf "trace-lint: expected at least one promotion and one steal event\n";
      exit 1
    end
  in
  Cmd.v (Cmd.info "trace-lint" ~doc) Term.(const run $ path_arg)

let bench_report_cmd =
  let doc =
    "Run the deterministic perf-gate suite (micro probes over the runtime primitives and hot \
     paths; one tiny-scale macro probe per figure family, the P-sweep and serving) and write \
     its report to PATH, for $(b,bench-diff) to compare against $(b,bench/baseline.json)."
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"Report JSON to write.")
  in
  let label_arg =
    Arg.(value & opt string "dev" & info [ "label" ] ~docv:"L" ~doc:"Report label.")
  in
  let suites =
    Benchgate.Suite.[ ("all", all); ("micro", micro); ("macro", macro) ]
  in
  let suite_arg =
    let doc =
      "Probe families to run: $(b,all), $(b,micro) or $(b,macro). $(b,micro) and $(b,macro) \
       partition $(b,all) (CI's two bench steps)."
    in
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) suites)) "all"
      & info [ "suite" ] ~docv:"SUITE" ~doc)
  in
  let run path label suite =
    let probes = List.assoc suite suites () in
    let report = Benchgate.Suite.report ~notes:[ ("suite", suite) ] ~probes ~label () in
    Benchgate.Report.write_file path report;
    Printf.printf "benchgate: wrote %d probes (suite %s, label %s) to %s\n"
      (List.length report.Benchgate.Report.probes) suite label path
  in
  Cmd.v (Cmd.info "bench-report" ~doc) Term.(const run $ path_arg $ label_arg $ suite_arg)

let bench_diff_cmd =
  let doc =
    "Compare two perf-gate reports (written by $(b,bench-report)). Every metric is \
     deterministic (virtual cycles, scheduler counters, allocation words); one that regressed \
     past the threshold hard-fails (exit 1). Metric-set skew (probes present on only one side) \
     warns but exits 0. Prints a per-metric delta table."
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline report JSON (e.g. bench/baseline.json).")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"Candidate report JSON.")
  in
  let threshold_arg =
    let doc = "Hard-fail threshold (relative; 0.02 = 2%)." in
    Arg.(value & opt float 0.02 & info [ "threshold" ] ~docv:"T" ~doc)
  in
  let subset_arg =
    let doc =
      "Compare only probes present in NEW: baseline probes the candidate did not run are out \
       of scope rather than 'removed'. For diffing a partial-suite report (CI's split \
       micro/macro bench steps) against the full committed baseline."
    in
    Arg.(value & flag & info [ "subset" ] ~doc)
  in
  let read_report path =
    match Benchgate.Report.read_file path with
    | r -> r
    | exception Sys_error msg ->
        Printf.eprintf "bench-diff: cannot read %s: %s\n" path msg;
        exit 2
    | exception Obs.Json.Parse_error msg ->
        Printf.eprintf "bench-diff: %s is not valid JSON: %s\n" path msg;
        exit 2
    | exception Benchgate.Report.Malformed msg ->
        Printf.eprintf "bench-diff: %s is not a benchmark report: %s\n" path msg;
        exit 2
  in
  let run old_path new_path threshold subset =
    let old = read_report old_path in
    let new_ = read_report new_path in
    let old =
      if not subset then old
      else
        {
          old with
          Benchgate.Report.probes =
            List.filter
              (fun p ->
                Benchgate.Report.find_probe new_ p.Benchgate.Report.probe <> None)
              old.Benchgate.Report.probes;
        }
    in
    let lines, verdict = Benchgate.Diff.compare ~threshold ~old ~new_ () in
    print_string (Benchgate.Diff.render ~threshold ~old ~new_ lines verdict);
    exit (Benchgate.Diff.exit_code verdict)
  in
  Cmd.v
    (Cmd.info "bench-diff" ~doc)
    Term.(const run $ old_arg $ new_arg $ threshold_arg $ subset_arg)

let fuzz_cmd =
  let doc =
    "Adversarial schedule fuzzing: run seed-deterministic random cases (workload x runtime knobs \
     x fault plan) under the scheduler sanitizer, differentially checked against the sequential \
     reference. A failing case is shrunk to a minimal JSON repro (replay it with \
     $(b,--replay)). $(b,--force-fail) seeds a known scheduler bug to exercise the whole \
     catch/shrink/replay pipeline."
  in
  let smoke_arg =
    let doc = "Fixed-seed quick sweep for CI: a small case count with a pinned seed." in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let fseed_arg =
    let doc = "Campaign seed: equal seeds generate equal case lists." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let cases_arg =
    let doc = "Number of generated cases to run." in
    Arg.(value & opt int 25 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-run the case in this repro file and check it reproduces the recorded failure class \
       (exit 0 when it does, 1 when it does not)."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Where to write the shrunk repro case when a run fails." in
    Arg.(value & opt string "fuzz-repro.json" & info [ "out" ] ~docv:"PATH" ~doc)
  in
  let force_arg =
    let doc =
      "Seed a known scheduler bug (duplicate-leftover, lose-stolen-task, or promote-innermost) \
       into a fixed case; the fuzzer must catch, shrink, and write a repro for it (exit 1). With \
       $(b,--native) the case runs on one domain under a $(b,polls:16) beat; lose-stolen-task is \
       simulator-only."
    in
    Arg.(value & opt (some string) None & info [ "force-fail" ] ~docv:"BUG" ~doc)
  in
  let native_arg =
    let doc =
      "Fuzz the real domains backend: cases run on OCaml 5 domains under a deterministic \
       $(b,polls:N) beat with backend-portable chaos plans (beat drops, steal refusals, \
       poll-counted stalls, wakeup suppressions), sanitizer on, differentially checked against \
       the sequential reference — chaos may change performance, never results."
    in
    Arg.(value & flag & info [ "native" ] ~doc)
  in
  let serve_arg =
    let doc =
      "Fuzz whole multi-tenant workload mixes (N tenants x arrival process x fault plan) through \
       the job server instead of single cases: every completed job is differentially checked \
       against its serial reference under contention, with the server and per-job sanitizers on. \
       $(b,--cases) counts mixes."
    in
    Arg.(value & flag & info [ "serve" ] ~doc)
  in
  let write_file path contents =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents)
  in
  let read_file path =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Printf.eprintf "fuzz: cannot read %s: %s\n" path msg;
      exit 2
  in
  (* Deterministic forced-failure case: small nested workload, all knobs at
     their defaults, so each seeded bug maps to one stable failure class.
     Natively it runs on one domain under a beat every 16 polls, the
     reproducible native schedule. *)
  let forced_case ~native bug =
    {
      Sanitizer.Fuzz.seed = 99;
      workload = "spmv-powerlaw";
      scale = 0.03;
      workers = (if native then 1 else 4);
      mechanism = Hbc_core.Rt_config.Software_polling;
      chunk = Hbc_core.Compiled.Adaptive;
      policy = Hbc_core.Rt_config.Outer_loop_first;
      leftover = Hbc_core.Rt_config.Spawn;
      chunk_transferring = true;
      ac_target_polls = 8;
      ac_window = 8;
      plan = Sim.Fault_plan.none;
      bug = Some bug;
      native_beat = (if native then Some 16 else None);
    }
  in
  let fail_and_shrink out c f =
    let kind = Sanitizer.Fuzz.failure_kind f in
    Printf.printf "FAIL [%s] %s\n" kind (Sanitizer.Fuzz.failure_describe f);
    let shrunk, spent = Sanitizer.Fuzz.shrink c ~kind in
    write_file out
      (Obs.Json.to_string
         (Sanitizer.Fuzz.repro_to_json shrunk ~kind
            ~summary:(Sanitizer.Fuzz.failure_describe f))
      ^ "\n");
    Printf.printf "minimized after %d shrink run(s): %s scale=%.4f P=%d faults=%s\n" spent
      shrunk.Sanitizer.Fuzz.workload shrunk.Sanitizer.Fuzz.scale shrunk.Sanitizer.Fuzz.workers
      (if Sim.Fault_plan.is_zero shrunk.Sanitizer.Fuzz.plan then "none" else "yes");
    Printf.printf "repro written to %s (replay: hbc_repro fuzz --replay %s)\n" out out;
    exit 1
  in
  let run_serve_mixes fseed mixes =
    let rng = Sim.Sim_rng.create fseed in
    for i = 1 to mixes do
      let m = Serve.Fuzz.gen_mix rng in
      (* Every mix is also crash-injected: the campaign is re-run through
         a WAL killed halfway, recovered, and byte-compared. *)
      let o = Serve.Fuzz.run_mix_recovery m in
      if o.Serve.Fuzz.failures <> [] then begin
        Printf.printf "FAIL mix %d/%d %s\n" i mixes (Serve.Fuzz.describe m);
        List.iter
          (fun f ->
            Printf.printf "  [%s] %s\n" (Serve.Fuzz.failure_kind f)
              (Serve.Fuzz.failure_describe f))
          o.Serve.Fuzz.failures;
        Printf.printf "replay: hbc_repro fuzz --serve --seed %d --cases %d (mix %d)\n" fseed
          mixes i;
        exit 1
      end;
      let s = o.Serve.Fuzz.result.Serve.Server.stats in
      Printf.printf
        "mix %2d/%d ok [%s]: %d submitted, %d completed, %d shed, %d deadline, %d failed, %d \
         ck/%d res\n\
         %!"
        i mixes
        (Serve.Server.preempt_name m.Serve.Server.preempt)
        s.Serve.Server.submitted s.Serve.Server.completed
        s.Serve.Server.shed s.Serve.Server.deadline_exceeded s.Serve.Server.failed
        s.Serve.Server.checkpointed s.Serve.Server.resumed
    done;
    Printf.printf "fuzz --serve: %d mix(es) (+ kill-and-recover each), 0 failures (seed %d)\n"
      mixes fseed
  in
  let run smoke fseed cases replay out force serve native =
    if serve then begin
      let fseed = if smoke then 2026 else fseed in
      let mixes = if smoke then 3 else cases in
      run_serve_mixes fseed mixes;
      exit 0
    end;
    match replay with
    | Some path -> (
        let j =
          match Obs.Json.parse (read_file path) with
          | j -> j
          | exception Obs.Json.Parse_error msg ->
              Printf.eprintf "fuzz: %s is not valid JSON: %s\n" path msg;
              exit 2
        in
        match Sanitizer.Fuzz.repro_of_json j with
        | Error e ->
            Printf.eprintf "fuzz: %s is not a repro file: %s\n" path e;
            exit 2
        | Ok (case, expect) ->
            let o = Sanitizer.Fuzz.run_case case in
            let got =
              match o.Sanitizer.Fuzz.failure with
              | Some f -> Sanitizer.Fuzz.failure_kind f
              | None -> "none"
            in
            Printf.printf "replay %s: expect=%s got=%s\n" path expect got;
            (match o.Sanitizer.Fuzz.failure with
            | Some f -> Printf.printf "  %s\n" (Sanitizer.Fuzz.failure_describe f)
            | None -> Printf.printf "  %s\n" o.Sanitizer.Fuzz.sanitizer_summary);
            if got = expect then begin
              print_endline "failure class REPRODUCED";
              exit 0
            end
            else begin
              print_endline "failure class NOT reproduced";
              exit 1
            end)
    | None -> (
        match force with
        | Some bugname -> (
            match Sanitizer.Fuzz.bug_of_string bugname with
            | Error e ->
                Printf.eprintf "fuzz: %s\n" e;
                exit 2
            | Ok Hbc_core.Executor.Lose_stolen_task when native ->
                Printf.eprintf
                  "fuzz: --force-fail lose-stolen-task cannot run with --native: a dropped \
                   stolen task leaves its join waiting forever on real domains (there is no \
                   virtual-time cap to end the run); force it on the simulator instead\n";
                exit 2
            | Ok bug -> (
                let c = forced_case ~native bug in
                let o = Sanitizer.Fuzz.run_case c in
                match o.Sanitizer.Fuzz.failure with
                | Some f -> fail_and_shrink out c f
                | None ->
                    Printf.eprintf
                      "fuzz: forced bug %s was NOT caught — the sanitizer pipeline is broken\n"
                      bugname;
                    exit 2))
        | None ->
            let fseed = if smoke then 2026 else fseed in
            let cases = if smoke then (if native then 6 else 8) else cases in
            let rng = Sim.Sim_rng.create fseed in
            let gen = if native then Sanitizer.Fuzz.gen_native else Sanitizer.Fuzz.gen in
            for i = 1 to cases do
              let c = gen rng in
              let o = Sanitizer.Fuzz.run_case c in
              (match o.Sanitizer.Fuzz.failure with
              | Some f -> fail_and_shrink out c f
              | None -> ());
              Printf.printf "case %2d/%d %-18s P=%-2d ok (%s)\n%!" i cases
                c.Sanitizer.Fuzz.workload c.Sanitizer.Fuzz.workers
                o.Sanitizer.Fuzz.sanitizer_summary
            done;
            Printf.printf "fuzz: %d case(s), 0 failures (seed %d)\n" cases fseed)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ smoke_arg $ fseed_arg $ cases_arg $ replay_arg $ out_arg $ force_arg
      $ serve_arg $ native_arg)

let serve_cmd =
  let doc =
    "Multi-tenant serving: a seeded open-loop stream of jobs from N tenants shares one simulated \
     worker pool under admission control, weighted fairness, metered promotion budgets, per-job \
     deadlines, and per-tenant circuit breakers. Overload degrades explicitly — typed sheds, \
     deadline preemptions with partial results journaled, quarantined faulty tenants — and every \
     decision is deterministic from the seed. Exit codes: 3 sanitizer violation, 4 an \
     $(b,--expect-*) assertion failed."
  in
  let tenants_arg =
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants.")
  in
  let jobs_arg =
    Arg.(value & opt int 6 & info [ "jobs" ] ~docv:"N" ~doc:"Jobs per tenant.")
  in
  let pool_arg =
    Arg.(value & opt int 8 & info [ "pool" ] ~docv:"N" ~doc:"Simulated workers in the shared pool.")
  in
  let qcap_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission queue capacity; 0 sheds everything (the forced-shed smoke).")
  in
  let arrival_arg =
    Arg.(
      value & opt string "poisson:5000"
      & info [ "arrival" ] ~docv:"PROC"
          ~doc:
            "Arrival process for every tenant: poisson:MEANGAP, burst:PERIOD:SIZE, or \
             adversarial:QUIET:BURST.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some string) None
      & info [ "deadline" ] ~docv:"LO:HI"
          ~doc:"Per-job deadline drawn from [LO,HI] cycles after submission.")
  in
  let faulty_arg =
    Arg.(
      value & opt (some int) None
      & info [ "faulty-tenant" ] ~docv:"T"
          ~doc:
            "Give tenant $(docv) a fault plan and a tight cycle budget, so its jobs fail \
             structurally and its circuit breaker quarantines it.")
  in
  let service_arg =
    Arg.(
      value & opt string "hbc"
      & info [ "service" ] ~docv:"SVC"
          ~doc:
            (Printf.sprintf "Service executor: %s."
               (String.concat ", " (List.map fst Experiments.Serve_bench.services))))
  in
  let sseed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Server seed: the whole run.")
  in
  let sanitize_arg =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run a per-job scheduler checker beside the server's own lifecycle check (job, \
             budget and resume conservation); violations exit 3.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ] ~doc:"Differentially check every completed job against its serial reference.")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:"Write the server's lifecycle trace as Chrome trace_event JSON to $(docv).")
  in
  let decisions_arg =
    Arg.(
      value & opt (some string) None
      & info [ "decisions" ] ~docv:"PATH"
          ~doc:
            "Write the textual decision journal to $(docv); byte-identical across equal-seed \
             runs (the determinism smoke diffs two of these).")
  in
  let expect_shed_arg =
    Arg.(value & flag & info [ "expect-shed" ] ~doc:"Exit 4 unless at least one job was shed.")
  in
  let expect_deadline_arg =
    Arg.(
      value & flag
      & info [ "expect-deadline" ] ~doc:"Exit 4 unless at least one job exceeded its deadline.")
  in
  let preempt_arg =
    Arg.(
      value & opt string "cancel"
      & info [ "preempt-policy" ] ~docv:"POLICY"
          ~doc:
            "What a deadline does to a running job: $(b,cancel) kills it (partial results \
             journaled); $(b,pause) checkpoints it at an engine boundary, refunds its unused \
             promotion grant, and requeues it with a refreshed deadline — completed jobs are \
             byte-identical to uninterrupted runs.")
  in
  let max_preempts_arg =
    Arg.(
      value & opt int 4
      & info [ "max-preempts" ] ~docv:"N"
          ~doc:
            "Pause/resume episodes (and breaker deferrals) allowed per job before the final \
             episode runs against a hard deadline.")
  in
  let wal_arg =
    Arg.(
      value & opt (some string) None
      & info [ "wal" ] ~docv:"PATH"
          ~doc:
            "Write the decision journal through a write-ahead log at $(docv): each line is \
             flushed before the next decision. Re-running against a partial log (after a kill) \
             byte-verifies the committed prefix, drops a torn trailing record, and appends only \
             new decisions.")
  in
  let kill_after_arg =
    Arg.(
      value & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Crash injection (needs $(b,--wal)): after $(docv) WAL appends, tear the next \
             record mid-write and abort with exit 137 — the recovery smoke resumes from the \
             torn log.")
  in
  let workload_cycle = [| "plus-reduce-array"; "mandelbrot"; "spmv-powerlaw"; "kmeans" |] in
  let run tenants jobs pool qcap arrival deadline faulty service seed sanitize verify trace_path
      decisions_path expect_shed expect_deadline preempt max_preempts wal kill_after =
    let arrival =
      match Serve.Arrival.of_string arrival with
      | Some a -> a
      | None ->
          Printf.eprintf "serve: bad --arrival %s (poisson:G | burst:P:S | adversarial:Q:B)\n"
            arrival;
          exit 2
    in
    let deadline =
      Option.map
        (fun s ->
          match String.split_on_char ':' s with
          | [ lo; hi ] -> (
              match (int_of_string_opt lo, int_of_string_opt hi) with
              | Some lo, Some hi when 0 < lo && lo <= hi -> (lo, hi)
              | _ ->
                  Printf.eprintf "serve: bad --deadline %s (want LO:HI, 0 < LO <= HI)\n" s;
                  exit 2)
          | _ ->
              Printf.eprintf "serve: bad --deadline %s (want LO:HI)\n" s;
              exit 2)
        deadline
    in
    let service =
      match List.assoc_opt service Experiments.Serve_bench.services with
      | Some engine -> engine
      | None ->
          Printf.eprintf "serve: unknown service %s\n" service;
          exit 2
    in
    let tenant i =
      let faulty = faulty = Some i in
      {
        Serve.Server.tenant_default with
        Serve.Server.weight = 1 + (i mod 2);
        arrival;
        jobs;
        workloads = [ workload_cycle.(i mod Array.length workload_cycle) ];
        workers_wanted = 2 + (2 * (i mod 2));
        deadline;
        cycle_budget = (if faulty then Some (3_000, 6_000) else None);
        fault_plan =
          (if faulty then
             Some
               {
                 Sim.Fault_plan.none with
                 Sim.Fault_plan.seed = seed + i;
                 beat_drop_prob = 0.3;
                 beat_jitter = 2_000;
                 steal_fail_prob = 0.3;
                 steal_fail_burst = 2;
                 stall_prob = 0.1;
                 stall_cycles = 1_000;
               }
           else None);
      }
    in
    (match faulty with
    | Some t when t < 0 || t >= tenants ->
        Printf.eprintf "serve: --faulty-tenant %d out of range (0..%d)\n" t (tenants - 1);
        exit 2
    | _ -> ());
    let preempt =
      match Serve.Server.preempt_of_string preempt with
      | Some p -> p
      | None ->
          Printf.eprintf "serve: bad --preempt-policy %s (cancel | pause)\n" preempt;
          exit 2
    in
    if kill_after <> None && wal = None then begin
      Printf.eprintf "serve: --kill-after needs --wal\n";
      exit 2
    end;
    let cfg =
      {
        Serve.Server.default_config with
        Serve.Server.tenants = Array.init tenants tenant;
        pool;
        queue_capacity = qcap;
        seed;
        service;
        sanitize;
        verify;
        preempt;
        max_preempts;
        wal;
        wal_kill_after = kill_after;
      }
    in
    let r =
      try Serve.Server.run cfg with
      | Serve.Server.Killed ->
          Printf.eprintf "serve: killed by --kill-after crash injection (WAL record torn)\n";
          exit 137
      | Serve.Server.Wal msg ->
          Printf.eprintf "serve: WAL recovery failed: %s\n" msg;
          exit 5
    in
    let s = r.Serve.Server.stats in
    Printf.printf
      "service          : %s (%d tenants x %d jobs, pool %d, queue %d, seed %d, preempt %s)\n"
      (Sched_run.family service)
      tenants jobs pool qcap seed
      (Serve.Server.preempt_name preempt);
    (match wal with
    | None -> ()
    | Some path ->
        Printf.printf "wal              : %d committed line(s) replayed <- %s\n"
          r.Serve.Server.wal_replayed path);
    Printf.printf "%s\n" (Serve.Server.summary r);
    let by_tenant = Hashtbl.create 8 in
    List.iter
      (fun (rep : Serve.Server.job_report) ->
        let c, d, sh, f =
          try Hashtbl.find by_tenant rep.Serve.Server.tenant with Not_found -> (0, 0, 0, 0)
        in
        Hashtbl.replace by_tenant rep.Serve.Server.tenant
          (match rep.Serve.Server.outcome with
          | Serve.Server.Completed -> (c + 1, d, sh, f)
          | Serve.Server.Deadline_exceeded -> (c, d + 1, sh, f)
          | Serve.Server.Rejected _ -> (c, d, sh + 1, f)
          | Serve.Server.Failed _ -> (c, d, sh, f + 1)))
      r.Serve.Server.reports;
    for t = 0 to tenants - 1 do
      let c, d, sh, f = try Hashtbl.find by_tenant t with Not_found -> (0, 0, 0, 0) in
      Printf.printf "tenant %d         : %d completed, %d deadline, %d shed, %d failed%s\n" t c d
        sh f
        (if faulty = Some t then " (faulty)" else "")
    done;
    (match decisions_path with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc r.Serve.Server.decisions);
        Printf.printf "decisions        : %d lines -> %s\n"
          (List.length (String.split_on_char '\n' r.Serve.Server.decisions) - 1)
          path);
    (match trace_path with
    | None -> ()
    | Some path ->
        let events = r.Serve.Server.events in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc
              (Obs.Perfetto.instants ~process_name:"hbc-serve"
                 (List.map (fun (time, ev) -> (time, Serve.Lifecycle.event_name ev)) events)));
        Printf.printf "trace            : %d events -> %s\n" (List.length events) path);
    if r.Serve.Server.violations <> [] then begin
      List.iter
        (fun (job, (v : Serve.Server.violation)) ->
          Printf.eprintf "violation %s: [%s] t=%d %s\n"
            (match job with Some j -> Printf.sprintf "job %d" j | None -> "server")
            v.invariant v.time v.message)
        r.Serve.Server.violations;
      exit 3
    end;
    if sanitize then Printf.printf "sanitizer        : ok (server + %d job runs)\n" s.Serve.Server.admitted;
    if expect_shed && s.Serve.Server.shed = 0 then begin
      Printf.eprintf "serve: expected sheds but none occurred\n";
      exit 4
    end;
    if expect_deadline && s.Serve.Server.deadline_exceeded = 0 then begin
      Printf.eprintf "serve: expected deadline misses but none occurred\n";
      exit 4
    end
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ tenants_arg $ jobs_arg $ pool_arg $ qcap_arg $ arrival_arg $ deadline_arg
      $ faulty_arg $ service_arg $ sseed_arg $ sanitize_arg $ verify_arg $ trace_arg
      $ decisions_arg $ expect_shed_arg $ expect_deadline_arg $ preempt_arg $ max_preempts_arg
      $ wal_arg $ kill_after_arg)

let () =
  let doc = "Reproduction harness for 'Compiling Loop-Based Nested Parallelism for Irregular Workloads' (ASPLOS'24)" in
  let info = Cmd.info "hbc_repro" ~doc in
  let cmds =
    [
      all_cmd;
      list_cmd;
      run_cmd;
      asm_cmd;
      ablation_cmd;
      timeline_cmd;
      trace_lint_cmd;
      bench_report_cmd;
      bench_diff_cmd;
      fuzz_cmd;
      serve_cmd;
    ]
    @ List.map fig_cmd Experiments.Run_all.figures
  in
  exit (Cmd.eval (Cmd.group info cmds))
