(* Draw seeded multi-tenant serve configurations, run them in full and
   classify anything that should never happen under contention. *)

type failure =
  | Mismatch of { job : int; workload : string }
  | Invariant of { job : int option; violation : Server.violation }
  | Crash of { job : int; reason : string }
  | Lost_jobs of { submitted : int; accounted : int }
  | Recovery of string

let failure_kind = function
  | Mismatch _ -> "mismatch"
  | Invariant { violation; _ } -> "violation:" ^ violation.invariant
  | Crash _ -> "crash"
  | Lost_jobs _ -> "lost-jobs"
  | Recovery _ -> "recovery"

let failure_describe = function
  | Mismatch { job; workload } -> Printf.sprintf "job %d (%s): fingerprint mismatch" job workload
  | Invariant { job; violation } ->
      Printf.sprintf "%s: [%s @ t=%d] %s"
        (match job with Some j -> Printf.sprintf "job %d" j | None -> "server")
        violation.invariant violation.time violation.message
  | Crash { job; reason } -> Printf.sprintf "job %d crashed: %s" job reason
  | Lost_jobs { submitted; accounted } ->
      Printf.sprintf "job conservation: %d submitted but %d accounted" submitted accounted
  | Recovery msg -> Printf.sprintf "crash recovery: %s" msg

type outcome = { result : Server.result; failures : failure list }

(* ------------------------------------------------------------------ *)
(* Mix generation.                                                     *)
(* ------------------------------------------------------------------ *)

let pick rng a = a.(Sim.Sim_rng.int rng (Array.length a))

(* One [let] per draw, in a fixed order: reordering the draws would change
   every mix a seed denotes. *)
let gen_arrival rng =
  match Sim.Sim_rng.int rng 3 with
  | 0 -> Arrival.Poisson { mean_gap = Float.of_int (2_000 + Sim.Sim_rng.int rng 18_000) }
  | 1 ->
      let size = 2 + Sim.Sim_rng.int rng 4 in
      let period = 5_000 + Sim.Sim_rng.int rng 35_000 in
      Arrival.Burst { period; size }
  | _ ->
      let burst = 3 + Sim.Sim_rng.int rng 6 in
      let quiet = 10_000 + Sim.Sim_rng.int rng 40_000 in
      Arrival.Adversarial { quiet; burst }

let gen_tenant rng ~pool ~faulty =
  let n_wl = 1 + Sim.Sim_rng.int rng 3 in
  let workloads = List.init n_wl (fun _ -> pick rng Sanitizer.Fuzz.workload_pool) in
  (* Low end tight enough that a pause-policy quantum lands inside a
     typical job's makespan (so preemption paths actually run), high end
     loose enough that most jobs still complete. *)
  let deadline =
    if Sim.Sim_rng.bool rng then
      let base = 8_000 + Sim.Sim_rng.int rng 150_000 in
      Some (base, 3 * base)
    else None
  in
  let fault_plan =
    if not faulty then None
    else
      Some
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
  let promotion_want = 4 + Sim.Sim_rng.int rng 28 in
  let cycle_budget =
    if faulty then
      let base = 100_000 + Sim.Sim_rng.int rng 400_000 in
      Some (base, 2 * base)
    else None
  in
  let workers_wanted = 1 + Sim.Sim_rng.int rng pool in
  let scale = 0.01 +. Sim.Sim_rng.float rng 0.02 in
  let jobs = 3 + Sim.Sim_rng.int rng 5 in
  let arrival = gen_arrival rng in
  let weight = 1 + Sim.Sim_rng.int rng 3 in
  {
    Server.tenant_default with
    weight;
    arrival;
    jobs;
    workloads;
    scale;
    workers_wanted;
    deadline;
    cycle_budget;
    fault_plan;
    promotion_want;
  }

let gen_mix rng =
  let pool = pick rng [| 4; 8; 16 |] in
  let tenants = 2 + Sim.Sim_rng.int rng 3 in
  let faulty = if Sim.Sim_rng.int rng 4 = 0 then Some (Sim.Sim_rng.int rng tenants) else None in
  let tenants = Array.init tenants (fun i -> gen_tenant rng ~pool ~faulty:(faulty = Some i)) in
  let preempt = if Sim.Sim_rng.bool rng then Server.Pause_and_requeue else Server.Cancel in
  let queue_capacity = 2 + Sim.Sim_rng.int rng 9 in
  let seed = Sim.Sim_rng.int rng 1_000_000 in
  {
    Server.default_config with
    tenants;
    pool;
    queue_capacity;
    seed;
    sanitize = true;
    verify = true;
    preempt;
  }

let describe (cfg : Server.config) =
  Printf.sprintf "mix seed=%d pool=%d queue=%d policy=%s tenants=[%s]" cfg.seed cfg.pool
    cfg.queue_capacity (Server.preempt_name cfg.preempt)
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (t : Server.tenant_spec) ->
               Printf.sprintf "%s jobs=%d w=%d%s%s" (Arrival.to_string t.arrival) t.jobs
                 t.workers_wanted
                 (match t.deadline with
                 | Some (lo, hi) -> Printf.sprintf " dl=%d..%d" lo hi
                 | None -> "")
                 (if t.fault_plan <> None then " FAULTY" else ""))
             cfg.tenants)))

(* ------------------------------------------------------------------ *)
(* Execution and classification.                                       *)
(* ------------------------------------------------------------------ *)

let classify (r : Server.result) =
  let failures = ref [] in
  let add f = failures := f :: !failures in
  List.iter
    (fun (job, violation) -> add (Invariant { job; violation }))
    r.Server.violations;
  List.iter
    (fun (rep : Server.job_report) ->
      if rep.mismatch then add (Mismatch { job = rep.job; workload = rep.workload });
      match rep.outcome with
      | Server.Failed reason
        when String.length reason >= 6 && String.sub reason 0 6 = "crash:" ->
          add (Crash { job = rep.job; reason })
      | _ -> ())
    r.Server.reports;
  (* Every submitted job must reach exactly one terminal outcome. *)
  let s = r.Server.stats in
  let accounted = s.shed + s.completed + s.deadline_exceeded + s.failed in
  if accounted <> s.submitted || List.length r.Server.reports <> s.submitted then
    add (Lost_jobs { submitted = s.submitted; accounted });
  List.rev !failures

let run_mix cfg =
  let result = Server.run cfg in
  { result; failures = classify result }

(* Crash-tolerance check: kill the same campaign halfway through its WAL
   (torn record and all), recover from the partial log, and demand the
   recovered decision journal be byte-identical to the uninterrupted
   run's. Any divergence — replay mismatch, missing kill, changed bytes —
   is a [Recovery] failure. *)
let run_mix_recovery cfg =
  let o = run_mix cfg in
  let lines = List.length (String.split_on_char '\n' o.result.Server.decisions) - 1 in
  if lines < 2 then o
  else
    let wal = Filename.temp_file "hbc-fuzz" ".wal" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove wal with Sys_error _ -> ())
      (fun () ->
        let kill = Stdlib.max 1 (lines / 2) in
        let killed =
          match Server.run { cfg with wal = Some wal; wal_kill_after = Some kill } with
          | _ -> false
          | exception Server.Killed -> true
        in
        match Server.run { cfg with wal = Some wal } with
        | exception Server.Wal msg ->
            { o with failures = o.failures @ [ Recovery ("wal replay: " ^ msg) ] }
        | recovered ->
            let extra = ref [] in
            if not killed then
              extra := Recovery "kill hook did not fire before campaign end" :: !extra;
            if killed && recovered.Server.wal_replayed = 0 then
              extra := Recovery "recovery replayed no committed WAL lines" :: !extra;
            if recovered.Server.decisions <> o.result.Server.decisions then
              extra :=
                Recovery
                  (Printf.sprintf
                     "recovered decisions diverge from uninterrupted run (%d replayed)"
                     recovered.Server.wal_replayed)
                :: !extra;
            { o with failures = o.failures @ List.rev !extra })
