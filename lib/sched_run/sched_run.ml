(* The one front door for running a program: pick an engine, pick a
   backend, get a {!Sim.Run_result.t}. Dispatch is total over
   (engine × backend); the combinations a backend cannot express fail
   loudly with [invalid_arg] instead of silently falling back. *)

type engine =
  | Hbc of Hbc_core.Rt_config.t
  | Tpal of { chunk : int }
  | Openmp of Baselines.Openmp.config
  | Serial
  | Hybrid of { hbc : Hbc_core.Rt_config.t; omp : Baselines.Openmp.config }

let hbc = Hbc Hbc_core.Rt_config.hbc

let hybrid = Hybrid { hbc = Hbc_core.Rt_config.hbc; omp = Baselines.Openmp.dynamic () }

(* Compile with the chunk mode from the config, then run on the backend. *)
let heartbeat ~request ?beat cfg program =
  let compiled = Hbc_core.Pipeline.compile_program ~chunk:cfg.Hbc_core.Rt_config.chunk program in
  match request.Hbc_core.Run_request.backend with
  | Sched.Policy.Sim -> Hbc_core.Executor.run_program ~request cfg compiled
  | Sched.Policy.Domains -> Hb_parallel.Native_run.run_program ~request ?beat cfg compiled

let rec run ?(request = Hbc_core.Run_request.default) ?beat engine (program : 'e Ir.Program.t) :
    Sim.Run_result.t =
  match (request.Hbc_core.Run_request.backend, engine) with
  | _, Hbc cfg -> heartbeat ~request ?beat cfg program
  | _, Tpal { chunk } -> heartbeat ~request ?beat (Hbc_core.Rt_config.tpal ~chunk) program
  | Sched.Policy.Sim, Openmp cfg -> Baselines.Openmp.run_program ~request cfg program
  | (Sched.Policy.Sim | Sched.Policy.Domains), Serial ->
      (* The sequential reference has no scheduler; it is backend-neutral. *)
      Baselines.Serial_exec.run_program ~request program
  | Sched.Policy.Sim, Hybrid { hbc; omp } ->
      let engine =
        match Baselines.Hybrid.chosen program with
        | `Static -> Openmp { omp with Baselines.Openmp.schedule = Baselines.Openmp.Static }
        | `Heartbeat -> Hbc hbc
      in
      run ~request ?beat engine program
  | Sched.Policy.Domains, (Openmp _ | Hybrid _) ->
      invalid_arg
        "Sched_run.run: the OpenMP-model baselines are virtual-time simulations; run them on the \
         sim backend"
