type case = {
  seed : int;
  workload : string;
  scale : float;
  workers : int;
  mechanism : Hbc_core.Rt_config.mechanism;
  chunk : Hbc_core.Compiled.chunk_mode;
  policy : Hbc_core.Rt_config.promotion_policy;
  leftover : Hbc_core.Rt_config.leftover_mode;
  chunk_transferring : bool;
  ac_target_polls : int;
  ac_window : int;
  plan : Sim.Fault_plan.t;
  bug : Hbc_core.Executor.seeded_bug option;
  native_beat : int option;
      (* Some n: run on the domains backend with a deterministic beat
         every n polls; None: the virtual-time simulator *)
}

type failure =
  | Violations of Checker.violation list
  | Mismatch of { expected : float; got : float }
  | Dnf
  | Crash of string

let failure_kind = function
  | Violations (v :: _) -> "violation:" ^ Checker.invariant_name v.Checker.invariant
  | Violations [] -> "violation"
  | Mismatch _ -> "mismatch"
  | Dnf -> "dnf"
  | Crash _ -> "crash"

let failure_describe = function
  | Violations vs ->
      let v = List.hd vs in
      Printf.sprintf "%d violation(s); first [%s]: %s" (List.length vs)
        (Checker.invariant_name v.Checker.invariant) v.Checker.message
  | Mismatch { expected; got } ->
      Printf.sprintf "fingerprint mismatch: sequential %.17g, parallel %.17g" expected got
  | Dnf -> "did not finish under the virtual-time cap"
  | Crash msg -> "crash: " ^ msg

type outcome = {
  case : case;
  failure : failure option;
  sanitizer_summary : string;
  makespan : int;
}

(* ------------------------------------------------------------------ *)
(* String codecs for the knob enums.                                   *)
(* ------------------------------------------------------------------ *)

let mechanism_to_string = function
  | Hbc_core.Rt_config.Software_polling -> "poll"
  | Hbc_core.Rt_config.Interrupt_ping_thread -> "ping"
  | Hbc_core.Rt_config.Interrupt_kernel_module -> "km"

let mechanism_of_string = function
  | "poll" -> Ok Hbc_core.Rt_config.Software_polling
  | "ping" -> Ok Hbc_core.Rt_config.Interrupt_ping_thread
  | "km" -> Ok Hbc_core.Rt_config.Interrupt_kernel_module
  | s -> Error ("unknown mechanism: " ^ s)

let chunk_to_string = function
  | Hbc_core.Compiled.Adaptive -> "adaptive"
  | Hbc_core.Compiled.No_chunking -> "none"
  | Hbc_core.Compiled.Static n -> string_of_int n

let chunk_of_string s =
  match s with
  | "adaptive" -> Ok Hbc_core.Compiled.Adaptive
  | "none" -> Ok Hbc_core.Compiled.No_chunking
  | _ -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (Hbc_core.Compiled.Static n)
      | _ -> Error ("unknown chunk mode: " ^ s))

let bug_to_string = function
  | Hbc_core.Executor.Duplicate_leftover -> "duplicate-leftover"
  | Hbc_core.Executor.Lose_stolen_task -> "lose-stolen-task"
  | Hbc_core.Executor.Promote_innermost -> "promote-innermost"

let bug_of_string = function
  | "duplicate-leftover" -> Ok Hbc_core.Executor.Duplicate_leftover
  | "lose-stolen-task" -> Ok Hbc_core.Executor.Lose_stolen_task
  | "promote-innermost" -> Ok Hbc_core.Executor.Promote_innermost
  | s -> Error ("unknown seeded bug: " ^ s)

(* ------------------------------------------------------------------ *)
(* JSON codec and hashing.                                             *)
(* ------------------------------------------------------------------ *)

let case_to_json c =
  let open Obs.Json in
  let base =
    [
      ("v", Int 1);
      ("seed", Int c.seed);
      ("workload", Str c.workload);
      ("scale", Float c.scale);
      ("workers", Int c.workers);
      ("mechanism", Str (mechanism_to_string c.mechanism));
      ("chunk", Str (chunk_to_string c.chunk));
      ( "policy",
        Str
          (match c.policy with
          | Hbc_core.Rt_config.Outer_loop_first -> "outer"
          | Hbc_core.Rt_config.Innermost_first -> "inner") );
      ( "leftover",
        Str
          (match c.leftover with
          | Hbc_core.Rt_config.Spawn -> "spawn"
          | Hbc_core.Rt_config.Inline -> "inline") );
      ("chunk_transferring", Bool c.chunk_transferring);
      ("ac_target_polls", Int c.ac_target_polls);
      ("ac_window", Int c.ac_window);
      ("fault_seed", Int c.plan.Sim.Fault_plan.seed);
      ("beat_drop", Float c.plan.Sim.Fault_plan.beat_drop_prob);
      ("beat_jitter", Int c.plan.Sim.Fault_plan.beat_jitter);
      ("steal_fail", Float c.plan.Sim.Fault_plan.steal_fail_prob);
      ("steal_burst", Int c.plan.Sim.Fault_plan.steal_fail_burst);
      ("stall_prob", Float c.plan.Sim.Fault_plan.stall_prob);
      ("stall_cycles", Int c.plan.Sim.Fault_plan.stall_cycles);
    ]
  in
  (* The portable-plan and native fields are omitted at their defaults so
     every pre-existing sim repro keeps its canonical bytes (and hash). *)
  let base =
    if c.plan.Sim.Fault_plan.stall_polls = 0 then base
    else base @ [ ("stall_polls", Int c.plan.Sim.Fault_plan.stall_polls) ]
  in
  let base =
    if c.plan.Sim.Fault_plan.delay_wakeup_prob = 0.0 then base
    else base @ [ ("wakeup_delay", Float c.plan.Sim.Fault_plan.delay_wakeup_prob) ]
  in
  let base =
    match c.native_beat with None -> base | Some nb -> base @ [ ("native_beat", Int nb) ]
  in
  let base =
    match c.bug with None -> base | Some b -> base @ [ ("bug", Str (bug_to_string b)) ]
  in
  Obj base

let case_of_json j =
  let open Obs.Json in
  match j with
  | Obj fields -> (
      let ( let* ) = Result.bind in
      let str name = Option.to_result ~none:("missing field " ^ name) (get_str name fields) in
      let int name = Option.to_result ~none:("missing field " ^ name) (get_int name fields) in
      let flt name = Option.to_result ~none:("missing field " ^ name) (get_float name fields) in
      let bol name = Option.to_result ~none:("missing field " ^ name) (get_bool name fields) in
      let* v = int "v" in
      if v <> 1 then Error (Printf.sprintf "unsupported fuzz-case version %d" v)
      else
        let* seed = int "seed" in
        let* workload = str "workload" in
        let* scale = flt "scale" in
        let* workers = int "workers" in
        let* mechanism = Result.bind (str "mechanism") mechanism_of_string in
        let* chunk = Result.bind (str "chunk") chunk_of_string in
        let* policy =
          Result.bind (str "policy") (function
            | "outer" -> Ok Hbc_core.Rt_config.Outer_loop_first
            | "inner" -> Ok Hbc_core.Rt_config.Innermost_first
            | s -> Error ("unknown policy: " ^ s))
        in
        let* leftover =
          Result.bind (str "leftover") (function
            | "spawn" -> Ok Hbc_core.Rt_config.Spawn
            | "inline" -> Ok Hbc_core.Rt_config.Inline
            | s -> Error ("unknown leftover mode: " ^ s))
        in
        let* chunk_transferring = bol "chunk_transferring" in
        let* ac_target_polls = int "ac_target_polls" in
        let* ac_window = int "ac_window" in
        let* fault_seed = int "fault_seed" in
        let* beat_drop = flt "beat_drop" in
        let* beat_jitter = int "beat_jitter" in
        let* steal_fail = flt "steal_fail" in
        let* steal_burst = int "steal_burst" in
        let* stall_prob = flt "stall_prob" in
        let* stall_cycles = int "stall_cycles" in
        (* optional: absent in repros written before the native backend *)
        let stall_polls = Option.value ~default:0 (get_int "stall_polls" fields) in
        let wakeup_delay = Option.value ~default:0.0 (get_float "wakeup_delay" fields) in
        let native_beat = get_int "native_beat" fields in
        let* bug =
          match get_str "bug" fields with
          | None -> Ok None
          | Some s -> Result.map Option.some (bug_of_string s)
        in
        Ok
          {
            seed;
            workload;
            scale;
            workers;
            mechanism;
            chunk;
            policy;
            leftover;
            chunk_transferring;
            ac_target_polls;
            ac_window;
            plan =
              {
                Sim.Fault_plan.seed = fault_seed;
                beat_drop_prob = beat_drop;
                beat_jitter;
                steal_fail_prob = steal_fail;
                steal_fail_burst = steal_burst;
                stall_prob;
                stall_cycles;
                stall_polls;
                delay_wakeup_prob = wakeup_delay;
              };
            bug;
            native_beat;
          })
  | _ -> Error "fuzz case must be a JSON object"

let case_hash c = Digest.to_hex (Digest.string (Obs.Json.to_string (case_to_json c)))

let repro_to_json c ~kind ~summary =
  Obs.Json.Obj
    [
      ("case", case_to_json c);
      ("expect", Obs.Json.Str kind);
      ("summary", Obs.Json.Str summary);
      ("hash", Obs.Json.Str (case_hash c));
    ]

let repro_of_json j =
  match j with
  | Obs.Json.Obj fields -> (
      match (Obs.Json.mem "case" fields, Obs.Json.get_str "expect" fields) with
      | Some cj, Some kind -> Result.map (fun c -> (c, kind)) (case_of_json cj)
      | None, _ -> Error "repro file has no \"case\" field"
      | _, None -> Error "repro file has no \"expect\" field")
  | _ -> Error "repro file must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Generation.                                                         *)
(* ------------------------------------------------------------------ *)

(* Small irregular workloads only: the fuzzer's value is schedule
   diversity, not workload size, and the smoke budget is seconds. *)
let workload_pool =
  [|
    "plus-reduce-array";
    "mandelbrot";
    "spmv-arrowhead";
    "spmv-powerlaw";
    "spmv-random";
    "kmeans";
    "srad";
    "ttv";
    "bfs";
  |]

let pick rng a = a.(Sim.Sim_rng.int rng (Array.length a))

let gen rng =
  let workload = pick rng workload_pool in
  let scale = 0.01 +. Sim.Sim_rng.float rng 0.03 in
  let workers = pick rng [| 1; 2; 4; 8; 16 |] in
  let mechanism =
    pick rng
      [|
        Hbc_core.Rt_config.Software_polling;
        Hbc_core.Rt_config.Interrupt_ping_thread;
        Hbc_core.Rt_config.Interrupt_kernel_module;
      |]
  in
  let chunk =
    match Sim.Sim_rng.int rng 6 with
    | 0 | 1 -> Hbc_core.Compiled.Adaptive
    | 2 -> Hbc_core.Compiled.No_chunking
    | _ -> Hbc_core.Compiled.Static (pick rng [| 1; 4; 32; 256 |])
  in
  let policy =
    if Sim.Sim_rng.int rng 4 = 0 then Hbc_core.Rt_config.Innermost_first
    else Hbc_core.Rt_config.Outer_loop_first
  in
  let leftover =
    if Sim.Sim_rng.int rng 4 = 0 then Hbc_core.Rt_config.Inline else Hbc_core.Rt_config.Spawn
  in
  let chunk_transferring = Sim.Sim_rng.bool rng in
  let ac_target_polls = 1 + Sim.Sim_rng.int rng 12 in
  let ac_window = 1 + Sim.Sim_rng.int rng 8 in
  let plan =
    if Sim.Sim_rng.bool rng then Sim.Fault_plan.none
    else
      {
        Sim.Fault_plan.none with
        Sim.Fault_plan.seed = Sim.Sim_rng.int rng 1_000_000;
        beat_drop_prob = Sim.Sim_rng.float rng 0.4;
        beat_jitter = Sim.Sim_rng.int rng 3_000;
        steal_fail_prob = Sim.Sim_rng.float rng 0.5;
        steal_fail_burst = Sim.Sim_rng.int rng 4;
        stall_prob = Sim.Sim_rng.float rng 0.2;
        stall_cycles = 1 + Sim.Sim_rng.int rng 3_000;
      }
  in
  {
    seed = Sim.Sim_rng.int rng 1_000_000;
    workload;
    scale;
    workers;
    mechanism;
    chunk;
    policy;
    leftover;
    chunk_transferring;
    ac_target_polls;
    ac_window;
    plan;
    bug = None;
    native_beat = None;
  }

(* Native chaos cases: the domains backend under a deterministic beat and
   a portable-only fault plan. Worker counts stay small (these run on real
   domains inside CI), the beat is coarse enough that runs finish fast,
   and the plan never includes simulator-only kinds, so [run_case] always
   dispatches cleanly. *)
let gen_native rng =
  let workload = pick rng workload_pool in
  let scale = 0.01 +. Sim.Sim_rng.float rng 0.03 in
  let workers = pick rng [| 1; 2; 4 |] in
  let chunk =
    match Sim.Sim_rng.int rng 6 with
    | 0 | 1 -> Hbc_core.Compiled.Adaptive
    | 2 -> Hbc_core.Compiled.No_chunking
    | _ -> Hbc_core.Compiled.Static (pick rng [| 1; 4; 32; 256 |])
  in
  let policy =
    if Sim.Sim_rng.int rng 4 = 0 then Hbc_core.Rt_config.Innermost_first
    else Hbc_core.Rt_config.Outer_loop_first
  in
  let leftover =
    if Sim.Sim_rng.int rng 4 = 0 then Hbc_core.Rt_config.Inline else Hbc_core.Rt_config.Spawn
  in
  let plan =
    if Sim.Sim_rng.bool rng then Sim.Fault_plan.none else Sim.Fault_plan.random_portable rng
  in
  {
    seed = Sim.Sim_rng.int rng 1_000_000;
    workload;
    scale;
    workers;
    mechanism = Hbc_core.Rt_config.Software_polling;
    chunk;
    policy;
    leftover;
    chunk_transferring = Sim.Sim_rng.bool rng;
    ac_target_polls = 1 + Sim.Sim_rng.int rng 12;
    ac_window = 1 + Sim.Sim_rng.int rng 8;
    plan;
    bug = None;
    native_beat = Some (pick rng [| 16; 32; 64; 128 |]);
  }

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)
(* ------------------------------------------------------------------ *)

let rt_of_case c =
  {
    Hbc_core.Rt_config.default with
    Hbc_core.Rt_config.workers = c.workers;
    mechanism = c.mechanism;
    chunk = c.chunk;
    ac_target_polls = c.ac_target_polls;
    ac_window = c.ac_window;
    leftover = c.leftover;
    policy = c.policy;
    chunk_transferring = c.chunk_transferring;
    seed = c.seed;
  }

let run_case c =
  let entry = Workloads.Registry.find c.workload in
  let (Ir.Program.Any p) = entry.Workloads.Registry.make c.scale in
  let seq = Baselines.Serial_exec.run_program p in
  (* Generous cap: heavy fault plans and No_chunking overheads legitimately
     cost many times the pure work; only livelock-grade schedules hit it. *)
  let cap = (100 * seq.Sim.Run_result.work_cycles) + 10_000_000 in
  let rt = rt_of_case c in
  let san = Checker.create (Checker.config_of_rt rt) in
  let request =
    Hbc_core.Run_request.make
      ?backend:(match c.native_beat with Some _ -> Some Sched.Policy.Domains | None -> None)
      ?max_cycles:(match c.native_beat with Some _ -> None | None -> Some cap)
      ?fault_plan:(if Sim.Fault_plan.is_zero c.plan then None else Some c.plan)
      ~trace:(Checker.sink san) ~sanitize:true ~fuzz_case:(case_hash c) ()
  in
  Hbc_core.Executor.set_seeded_bug c.bug;
  let run () =
    (* On real domains the sanitizer consumes the backend-linearized
       stream; the virtual-time cap does not apply (wall time is bounded by
       the workload scale). *)
    let beat = Option.map (fun nb -> Hb_parallel.Native_run.Every_polls nb) c.native_beat in
    try Ok (Sched_run.run ~request ?beat (Sched_run.Hbc rt) p)
    with e -> Error (Printexc.to_string e)
  in
  let result = Fun.protect ~finally:(fun () -> Hbc_core.Executor.set_seeded_bug None) run in
  Checker.finish san;
  let failure =
    match result with
    | Error msg -> Some (Crash msg)
    | Ok r ->
        if r.Sim.Run_result.dnf then Some Dnf
        else if not (Checker.ok san) then Some (Violations (Checker.violations san))
        else if not (Sim.Run_result.fingerprints_close seq r) then
          Some
            (Mismatch
               {
                 expected = seq.Sim.Run_result.fingerprint;
                 got = r.Sim.Run_result.fingerprint;
               })
        else None
  in
  {
    case = c;
    failure;
    sanitizer_summary = Checker.summary san;
    makespan = (match result with Ok r -> r.Sim.Run_result.makespan | Error _ -> 0);
  }

(* ------------------------------------------------------------------ *)
(* Shrinking.                                                          *)
(* ------------------------------------------------------------------ *)

(* Candidate reductions, most aggressive first. Each returns a strictly
   "smaller or more default" case, or None when it would not change it. *)
let shrink_candidates c =
  let if_changed c' = if c' = c then None else Some c' in
  [
    (if c.scale > 0.011 then Some { c with scale = c.scale /. 2.0 } else None);
    if_changed { c with plan = Sim.Fault_plan.none };
    if_changed { c with plan = { c.plan with Sim.Fault_plan.beat_drop_prob = 0.0; beat_jitter = 0 } };
    if_changed { c with plan = { c.plan with Sim.Fault_plan.steal_fail_prob = 0.0; steal_fail_burst = 0 } };
    if_changed
      { c with plan = { c.plan with Sim.Fault_plan.stall_prob = 0.0; stall_cycles = 0; stall_polls = 0 } };
    if_changed { c with plan = { c.plan with Sim.Fault_plan.delay_wakeup_prob = 0.0 } };
    (if c.workers > 1 then Some { c with workers = c.workers / 2 } else None);
    if_changed { c with mechanism = Hbc_core.Rt_config.Software_polling };
    if_changed { c with chunk = Hbc_core.Compiled.Adaptive };
    if_changed { c with ac_target_polls = 8; ac_window = 8 };
    if_changed { c with policy = Hbc_core.Rt_config.Outer_loop_first };
    if_changed { c with leftover = Hbc_core.Rt_config.Spawn };
    if_changed { c with chunk_transferring = true };
  ]

let shrink c ~kind =
  let runs = ref 0 in
  let still_fails c' =
    incr runs;
    match (run_case c').failure with
    | Some f -> failure_kind f = kind
    | None -> false
  in
  let rec fixpoint c budget =
    if budget = 0 then c
    else
      let rec try_candidates = function
        | [] -> None
        | None :: rest -> try_candidates rest
        | Some c' :: rest -> if still_fails c' then Some c' else try_candidates rest
      in
      match try_candidates (shrink_candidates c) with
      | Some c' -> fixpoint c' (budget - 1)
      | None -> c
  in
  let c' = fixpoint c 64 in
  (c', !runs)
