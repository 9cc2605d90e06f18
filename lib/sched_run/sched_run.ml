(* The one front door for running a program: pick an engine, pick a
   backend, get a {!Sim.Run_result.t}. Dispatch is total over
   (engine × backend); the combinations a backend cannot express fail
   loudly with [invalid_arg] instead of silently falling back. This module
   also owns the executor vocabulary: the names, the machine parameters
   and the journal signature of every engine. *)

type engine =
  | Hbc of Hbc_core.Rt_config.t
  | Tpal of Hbc_core.Rt_config.t
  | Openmp of Baselines.Openmp.config
  | Serial
  | Hybrid of { hbc : Hbc_core.Rt_config.t; omp : Baselines.Openmp.config }

let hbc = Hbc Hbc_core.Rt_config.hbc

let tpal ~chunk = Tpal (Hbc_core.Rt_config.tpal ~chunk)

let hybrid = Hybrid { hbc = Hbc_core.Rt_config.hbc; omp = Baselines.Openmp.dynamic () }

(* Name, trial tag, engine for a static chunk. A family's default member
   journals under the family tag (omp-dynamic as "omp"), a variant under
   its own name. *)
let executors =
  [
    ("seq", "seq", fun _ -> Serial);
    ("hbc", "hbc", fun _ -> hbc);
    ("hbc-km", "hbc-km", fun chunk -> Hbc (Hbc_core.Rt_config.hbc_kernel_module ~chunk));
    ("hbc-ping", "hbc-ping", fun chunk -> Hbc (Hbc_core.Rt_config.hbc_ping_thread ~chunk));
    ("tpal", "tpal", fun chunk -> tpal ~chunk);
    ("omp-static", "omp-static", fun _ -> Openmp (Baselines.Openmp.static ()));
    ("omp-dynamic", "omp", fun _ -> Openmp (Baselines.Openmp.dynamic ()));
  ]

let names = List.map (fun (name, _, _) -> name) executors

let of_name ~chunk name =
  List.find_map
    (fun (n, tag, make) -> if n = name then Some (tag, make chunk) else None)
    executors

let family = function
  | Hbc _ -> "hbc"
  | Tpal _ -> "tpal"
  | Openmp _ -> "omp"
  | Serial -> "seq"
  | Hybrid _ -> "hybrid"

let with_machine ~workers ~seed engine =
  let rt (c : Hbc_core.Rt_config.t) = { c with Hbc_core.Rt_config.workers; seed } in
  let omp (c : Baselines.Openmp.config) = { c with Baselines.Openmp.workers; seed } in
  match engine with
  | Hbc c -> Hbc (rt c)
  | Tpal c -> Tpal (rt c)
  | Openmp c -> Openmp (omp c)
  | Serial -> Serial
  | Hybrid { hbc; omp = o } -> Hybrid { hbc = rt hbc; omp = omp o }

let workers = function
  | Hbc c | Tpal c | Hybrid { hbc = c; _ } -> c.Hbc_core.Rt_config.workers
  | Openmp c -> c.Baselines.Openmp.workers
  | Serial -> 1

let signature = function
  | Hbc c | Tpal c -> Hbc_core.Rt_config.signature c
  | Openmp c -> Baselines.Openmp.signature c
  | Serial -> "serial-exec"
  | Hybrid { hbc; omp } ->
      "hybrid:" ^ Hbc_core.Rt_config.signature hbc ^ "+" ^ Baselines.Openmp.signature omp

(* Compile with the chunk mode from the config, then run on the backend. *)
let heartbeat ~request ?beat cfg program =
  let compiled = Hbc_core.Pipeline.compile_program ~chunk:cfg.Hbc_core.Rt_config.chunk program in
  match request.Hbc_core.Run_request.backend with
  | Sched.Policy.Sim -> Hbc_core.Executor.run_program ~request cfg compiled
  | Sched.Policy.Domains -> Hb_parallel.Native_run.run_program ~request ?beat cfg compiled

let rec run ?(request = Hbc_core.Run_request.default) ?beat engine (program : 'e Ir.Program.t) :
    Sim.Run_result.t =
  match (request.Hbc_core.Run_request.backend, engine) with
  | _, (Hbc cfg | Tpal cfg) -> heartbeat ~request ?beat cfg program
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
