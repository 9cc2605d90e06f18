type config = {
  scale : float;
  workers : int;
  seed : int;
  verbose : bool;
  trial_budget : int option;
  wall_budget : float option;
  max_retries : int;
  retry_backoff : float;
}

let default_config =
  {
    scale = 1.0;
    workers = 64;
    seed = 1;
    verbose = false;
    trial_budget = None;
    wall_budget = None;
    max_retries = 1;
    retry_backoff = 0.05;
  }

type outcome = {
  result : Sim.Run_result.t;
  speedup : float;
  valid : bool;
  error : Trial_error.t option;
}

(* ------------------------------------------------------------------ *)
(* Campaign state: in-memory cache, journal, quarantine.               *)
(* ------------------------------------------------------------------ *)

let cache : (string, Sim.Run_result.t) Hashtbl.t = Hashtbl.create 64

let failures : (string * string) list ref = ref []

(* key -> (human label, error): trials that exhausted their retries (or were
   journaled as failed) are skipped and reported, never re-run. *)
let quarantine : (string, string * Trial_error.t) Hashtbl.t = Hashtbl.create 16

(* Domains-parallel campaigns run in two phases. The warm phase renders
   figures concurrently across domains with the journal OFF and every
   computed result parked in [warm] (mutex-guarded; trial simulations are
   deterministic, so a racy duplicate compute stores the same value). The
   replay phase then re-renders sequentially; a trial that finds its key
   in [warm] journals and caches the parked result exactly as a fresh
   compute would — so the journal, figure text, and quarantine are
   byte-identical to a sequential campaign's. *)
let warm : (string, Sim.Run_result.t) Hashtbl.t = Hashtbl.create 64

let warm_mutex = Mutex.create ()

let warming = Atomic.make false

let begin_warm () =
  Hashtbl.reset warm;
  Atomic.set warming true

(* Warm-phase bookkeeping (cache, quarantine, validation failures) is
   discarded: it was filled in nondeterministic domain order, and the
   sequential replay rebuilds all of it in the canonical order. *)
let end_warm () =
  Atomic.set warming false;
  Hashtbl.reset cache;
  Hashtbl.reset quarantine;
  failures := []

let warm_results () = Hashtbl.length warm

let add_failure entry_tag =
  Mutex.lock warm_mutex;
  failures := entry_tag :: !failures;
  Mutex.unlock warm_mutex

let journal_ref : Checkpoint.t option ref = ref None

let set_journal j = journal_ref := j

let journal () = !journal_ref

let clear_cache () =
  Hashtbl.reset cache;
  Hashtbl.reset quarantine;
  failures := []

let validation_failures () = List.rev !failures

let quarantined () =
  Hashtbl.fold (fun _ (label, e) acc -> (label, e) :: acc) quarantine []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The trial key is a content hash of everything that determines the
   result: benchmark, tag, scale, workers, seed, and the executor-config
   signature (which itself covers seed, fault plan, cost model, ...).
   Changing any of them — including just the seed — yields a fresh key, so
   stale journal or cache entries can never be reused. *)
let trial_key config ~bench ~tag ~signature =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            bench;
            tag;
            Printf.sprintf "%.9g" config.scale;
            string_of_int config.workers;
            string_of_int config.seed;
            signature;
          ]))

(* ------------------------------------------------------------------ *)
(* Watchdog arming.                                                    *)
(* ------------------------------------------------------------------ *)

(* Wall-clock guard armed lazily on its first poll, so the deadline starts
   when the run starts (the closure is created fresh per attempt). *)
let wall_guard secs =
  let deadline = ref None in
  fun () ->
    let now = Int64.to_int (Monotonic_clock.now ()) in
    match !deadline with
    | None ->
        deadline := Some (now + int_of_float (secs *. 1e9));
        None
    | Some d ->
        if now > d then Some (Printf.sprintf "wall-clock budget %.1fs exceeded" secs) else None

(* Trial watchdogs arm on top of whatever the caller requested: an explicit
   per-request budget or guard wins; otherwise the campaign-level
   trial_budget / wall_budget apply. The guard closure is created fresh per
   attempt (the request is rebuilt), so retries get a fresh deadline. *)
let guarded config (req : Hbc_core.Run_request.t) =
  {
    req with
    Hbc_core.Run_request.cycle_budget =
      (match req.Hbc_core.Run_request.cycle_budget with
      | Some _ as b -> b
      | None -> config.trial_budget);
    guard =
      (match (req.Hbc_core.Run_request.guard, config.wall_budget) with
      | (Some _ as g), _ -> g
      | None, Some secs -> Some (wall_guard secs)
      | None, None -> None);
  }

(* ------------------------------------------------------------------ *)
(* The resilient trial runner.                                         *)
(* ------------------------------------------------------------------ *)

let classify_run (r : Sim.Run_result.t) =
  match Trial_error.of_termination r.Sim.Run_result.termination with
  | Some e -> Error e
  | None -> Ok r

let attempt_once compute =
  match compute () with r -> classify_run r | exception e -> Error (Trial_error.of_exn e)

(* Bounded retry with exponential backoff for transient failures;
   deterministic failures (timeout, deadlock, invariant, mismatch) fail
   fast. *)
let attempt_retries config label compute =
  let rec attempt n =
    match attempt_once compute with
    | Ok r -> Ok r
    | Error e when Trial_error.transient e && n < config.max_retries ->
        if config.retry_backoff > 0.0 then
          Unix.sleepf (config.retry_backoff *. Float.of_int (1 lsl n));
        if config.verbose then
          Printf.eprintf "[retry %d/%d] %s: %s\n%!" (n + 1) config.max_retries label
            (Trial_error.to_string e);
        attempt (n + 1)
    | Error e -> Error e
  in
  attempt 0

(* Warm phase: domains race only on [warm]; the journal, cache, and
   quarantine are untouched, so the replay phase starts from pristine
   state. Errors are not parked — the replay recomputes them (the
   simulation is deterministic) and quarantines in canonical order. *)
let warm_trial config ~key ~label compute =
  Mutex.lock warm_mutex;
  let hit = Hashtbl.find_opt warm key in
  Mutex.unlock warm_mutex;
  match hit with
  | Some r -> Ok r
  | None -> (
      if config.verbose then Printf.eprintf "[warm] %s\n%!" label;
      match attempt_retries config label compute with
      | Ok r ->
          Mutex.lock warm_mutex;
          Hashtbl.replace warm key r;
          Mutex.unlock warm_mutex;
          Ok r
      | Error e -> Error e)

let trial config ~bench ~tag ~signature compute =
  let key = trial_key config ~bench ~tag ~signature in
  let label = bench ^ "/" ^ tag in
  if Atomic.get warming then warm_trial config ~key ~label compute
  else
  match Hashtbl.find_opt cache key with
  | Some r -> Ok r
  | None -> (
      match Hashtbl.find_opt quarantine key with
      | Some (_, e) -> Error e
      | None -> (
          let record status =
            match !journal_ref with
            | None -> ()
            | Some j ->
                Checkpoint.record j
                  {
                    Checkpoint.key;
                    bench;
                    tag;
                    scale = config.scale;
                    workers = config.workers;
                    seed = config.seed;
                    status;
                  }
          in
          let from_journal =
            match !journal_ref with None -> None | Some j -> Checkpoint.find j key
          in
          match from_journal with
          | Some { Checkpoint.status = Checkpoint.Completed r; _ } ->
              if config.verbose then Printf.eprintf "[journal] %s\n%!" label;
              Hashtbl.replace cache key r;
              Ok r
          | Some { Checkpoint.status = Checkpoint.Failed e; _ } ->
              if config.verbose then Printf.eprintf "[quarantined] %s: %s\n%!" label (Trial_error.to_string e);
              Hashtbl.replace quarantine key (label, e);
              Error e
          | None -> (
              (* Warm results journal and cache exactly as a fresh compute
                 would, so a parallel campaign's journal matches the
                 sequential one byte for byte. *)
              let computed =
                match Hashtbl.find_opt warm key with
                | Some r ->
                    if config.verbose then Printf.eprintf "[replay] %s\n%!" label;
                    Ok r
                | None ->
                    if config.verbose then Printf.eprintf "[run] %s\n%!" label;
                    attempt_retries config label compute
              in
              match computed with
              | Ok r ->
                  Hashtbl.replace cache key r;
                  record (Checkpoint.Completed r);
                  Ok r
              | Error e ->
                  Hashtbl.replace quarantine key (label, e);
                  record (Checkpoint.Failed e);
                  if config.verbose then
                    Printf.eprintf "[failed] %s: %s\n%!" label (Trial_error.to_string e);
                  Error e)))

(* Placeholder for a trial that produced no result: zero work, so any
   speedup computed against or from it is 0 rather than garbage. *)
let errored_result () =
  {
    Sim.Run_result.makespan = 0;
    work_cycles = 0;
    fingerprint = Float.nan;
    dnf = false;
    termination = Sim.Run_result.Finished;
    metrics = Sim.Metrics.create ();
    trace = [];
    sanitizer = None;
  }

(* ------------------------------------------------------------------ *)
(* Executor frontends.                                                 *)
(* ------------------------------------------------------------------ *)

let baseline config entry =
  let result =
    trial config ~bench:entry.Workloads.Registry.name ~tag:"seq"
      ~signature:(Sched_run.signature Sched_run.Serial) (fun () ->
        let (Ir.Program.Any p) = entry.Workloads.Registry.make config.scale in
        Sched_run.run Sched_run.Serial p)
  in
  match result with Ok r -> r | Error _ -> errored_result ()

let outcome_of config entry tag result =
  match result with
  | Error e -> { result = errored_result (); speedup = 0.0; valid = false; error = Some e }
  | Ok result ->
      let base = baseline config entry in
      let valid =
        result.Sim.Run_result.dnf
        || (not (Sim.Run_result.completed result))
        || Sim.Run_result.fingerprints_close base result
      in
      if not valid then add_failure (entry.Workloads.Registry.name, tag);
      let error =
        if valid then None
        else
          Some
            (Trial_error.Result_mismatch
               (Printf.sprintf "fingerprint %h diverged from sequential reference %h"
                  result.Sim.Run_result.fingerprint base.Sim.Run_result.fingerprint))
      in
      { result; speedup = Sim.Run_result.speedup ~baseline:base result; valid; error }

(* The trial key hashes the UNguarded request: budgets and wall guards are
   excluded from Run_request.signature by design (they abort rather than
   change results), while the fault plan, cycle cap, and whether a trace is
   captured all land in the hash — a traced trial never aliases an untraced
   one in the journal. *)
let run ?(request = Hbc_core.Run_request.default) ?tag config engine entry =
  let engine = Sched_run.with_machine ~workers:config.workers ~seed:config.seed engine in
  let tag = Option.value tag ~default:(Sched_run.family engine) in
  let signature = Sched_run.signature engine ^ "+" ^ Hbc_core.Run_request.signature request in
  let result =
    trial config ~bench:entry.Workloads.Registry.name ~tag ~signature (fun () ->
        let (Ir.Program.Any p) = entry.Workloads.Registry.make config.scale in
        Sched_run.run ~request:(guarded config request) engine p)
  in
  outcome_of config entry tag result

let dnf_cap base = 2 * base.Sim.Run_result.work_cycles

(* ------------------------------------------------------------------ *)
(* Error-aware rendering helpers.                                      *)
(* ------------------------------------------------------------------ *)

let speedup_cell ?(decimals = 1) o =
  match o.error with
  | Some e -> Trial_error.cell e
  | None ->
      if o.result.Sim.Run_result.dnf then "DNF" else Report.Table.cell_f ~decimals o.speedup

let metric_cell o f =
  match o.error with Some e -> Trial_error.cell e | None -> f o.result

let speedup_opt o =
  if o.error <> None || o.result.Sim.Run_result.dnf || o.speedup <= 0.0 then None
  else Some o.speedup

let geomean_row ~label columns =
  label
  :: List.map
       (fun col ->
         let g, excluded = Report.Stats.geomean_excluding (List.map speedup_opt col) in
         if excluded = 0 then Report.Table.cell_f g
         else Printf.sprintf "%s (%d excl.)" (Report.Table.cell_f g) excluded)
       columns
