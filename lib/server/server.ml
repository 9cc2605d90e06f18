type preempt_policy = Cancel | Pause_and_requeue

let preempt_name = function Cancel -> "cancel" | Pause_and_requeue -> "pause"

let preempt_of_string = function
  | "cancel" -> Some Cancel
  | "pause" | "pause-and-requeue" -> Some Pause_and_requeue
  | _ -> None

exception Killed

exception Wal of string

type tenant_spec = {
  weight : int;
  arrival : Arrival.process;
  jobs : int;
  workloads : string list;
  scale : float;
  workers_wanted : int;
  deadline : (int * int) option;
  cycle_budget : (int * int) option;
  fault_plan : Sim.Fault_plan.t option;
  promotion_want : int;
  priority : int;
}

let tenant_default =
  {
    weight = 1;
    arrival = Arrival.Poisson { mean_gap = 5_000.0 };
    jobs = 4;
    workloads = [ "plus-reduce-array" ];
    scale = 0.02;
    workers_wanted = 4;
    deadline = None;
    cycle_budget = None;
    fault_plan = None;
    promotion_want = 16;
    priority = 0;
  }

type config = {
  tenants : tenant_spec array;
  pool : int;
  queue_capacity : int;
  seed : int;
  service : Sched_run.engine;
  breaker : Breaker.config;
  meter : Meter.config;
  sanitize : bool;
  verify : bool;
  preempt : preempt_policy;
  max_preempts : int;
  wal : string option;
  wal_kill_after : int option;
}

let default_config =
  {
    tenants = [||];
    pool = 8;
    queue_capacity = 16;
    seed = 1;
    service = Sched_run.hbc;
    breaker = Breaker.default_config;
    meter = Meter.default_config;
    sanitize = false;
    verify = false;
    preempt = Cancel;
    max_preempts = 4;
    wal = None;
    wal_kill_after = None;
  }

type outcome = Completed | Deadline_exceeded | Rejected of string | Failed of string

let outcome_name = function
  | Completed -> "completed"
  | Deadline_exceeded -> "deadline"
  | Rejected r -> "rejected:" ^ r
  | Failed r -> "failed:" ^ r

type job_report = {
  job : int;
  tenant : int;
  workload : string;
  submit_time : int;
  start_time : int option;
  finish_time : int;
  outcome : outcome;
  granted : int;
  promotions : int;
  service_cycles : int option;
  sojourn : int option;
  work_cycles : int;
  fingerprint : float option;
  mismatch : bool;
  episodes : int;
}

type stats = {
  submitted : int;
  admitted : int;
  shed : int;
  completed : int;
  deadline_exceeded : int;
  failed : int;
  checkpointed : int;
  resumed : int;
  sojourn_p50 : float;
  sojourn_p95 : float;
  sojourn_p99 : float;
  goodput : float;
  makespan : int;
  breaker_opens : int;
}

type violation = { invariant : string; time : int; message : string }

type result = {
  reports : job_report list;
  stats : stats;
  decisions : string;
  events : (int * Lifecycle.event) list;
  violations : (int option * violation) list;
  wal_replayed : int;
}

(* One job's fixed identity, drawn before the run starts. [deadline_abs]
   is refreshed on requeue under [Pause_and_requeue]; everything else is
   immutable across episodes. *)
type pending = {
  id : int;
  p_tenant : int;
  p_workload : string;
  submit : int;
  deadline_abs : int option;
  p_quantum : int option;  (* the relative deadline draw, reused as the per-episode quantum *)
  budget_cap : int option;
  jseed : int;
  p_priority : int;
  workers : int;
  want : int;
  p_probe : bool;  (* admitted as a half-open breaker probe *)
  p_retries : int;  (* breaker deferrals so far (Pause_and_requeue only) *)
}

(* One inner executor episode's outcome. [x_outcome = None] means the run
   paused cooperatively at [x_pause]'s boundary; every metric is cumulative
   over the job's whole history (resumed runs replay from cycle 0 and
   recount), so [x_makespan] is the absolute inner cycle reached. *)
type exec = {
  x_outcome : outcome option;
  x_pause : Sim.Checkpoint_state.t option;
  x_makespan : int;
  x_promotions : int;
  x_work : int;
  x_fp : float option;
  x_mismatch : bool;
  x_preempted : bool;
  x_violations : violation list;
}

type ev = Arrival of pending | Completion of completion
and completion = { c_job : pending; c_grant : int; c_service : int; c_exec : exec }

(* Mutable per-job episode state, keyed by job id. The checker persists
   across episodes: resumed runs mute their replayed prefix, so the sink
   sees each episode's events exactly once and its work-conservation
   tiling spans the whole pause/resume history. *)
type jctx = {
  mutable episodes : int;  (* completed pause/resume episodes *)
  mutable ck : Sim.Checkpoint_state.t option;
  mutable boundary : int;  (* inner cycle of the last checkpoint *)
  mutable granted_total : int;
  mutable remaining : int;  (* unconsumed grant refunded at the last pause *)
  mutable used_before : int;  (* cumulative promotions at the last boundary *)
  mutable work_before : int;
  mutable first_start : int;
  jchecker : Sanitizer.Checker.t option;
}

(* ------------------------------------------------------------------ *)
(* Job generation.                                                      *)
(* ------------------------------------------------------------------ *)

let draw_range rng = function
  | None -> None
  | Some (lo, hi) ->
      let lo = Stdlib.min lo hi and hi = Stdlib.max lo hi in
      Some (if hi = lo then lo else lo + Sim.Sim_rng.int rng (hi - lo + 1))

(* Per-tenant child streams in tenant order, then per-job draws in a fixed
   order: the whole offered load is a pure function of [cfg.seed]. *)
let generate_jobs cfg =
  let master = Sim.Sim_rng.create cfg.seed in
  let all = ref [] in
  Array.iteri
    (fun tenant spec ->
      let rng = Sim.Sim_rng.split master in
      let times = Arrival.times spec.arrival ~rng ~jobs:spec.jobs in
      List.iteri
        (fun k time ->
          let wl =
            match spec.workloads with
            | [] -> invalid_arg "Server: tenant with no workloads"
            | [ w ] -> w
            | ws -> List.nth ws (Sim.Sim_rng.int rng (List.length ws))
          in
          let deadline_rel = draw_range rng spec.deadline in
          let budget_cap = draw_range rng spec.cycle_budget in
          let jseed = 1 + Sim.Sim_rng.int rng 1_000_000 in
          all :=
            ( time,
              tenant,
              k,
              {
                id = 0;
                p_tenant = tenant;
                p_workload = wl;
                submit = time;
                deadline_abs = Option.map (fun d -> time + Stdlib.max 1 d) deadline_rel;
                p_quantum = Option.map (Stdlib.max 1) deadline_rel;
                budget_cap;
                jseed;
                p_priority = spec.priority;
                workers = Stdlib.max 1 (Stdlib.min spec.workers_wanted cfg.pool);
                want = Stdlib.max 0 spec.promotion_want;
                p_probe = false;
                p_retries = 0;
              } )
            :: !all)
        times)
    cfg.tenants;
  (* Simultaneous arrivals are ordered (tenant, per-tenant index): one
     fixed submission order per seed, whatever the map/fold order above. *)
  let sorted = List.sort (fun (t1, a1, k1, _) (t2, a2, k2, _) -> compare (t1, a1, k1) (t2, a2, k2)) !all in
  List.mapi (fun id (_, _, _, p) -> { p with id }) sorted

(* ------------------------------------------------------------------ *)
(* Inner job execution.                                                 *)
(* ------------------------------------------------------------------ *)

(* Serial references are deterministic per (workload, scale): cache them
   across jobs so verification does not rerun the reference per job. *)
let serial_reference cache ~workload ~scale =
  let key = (workload, scale) in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let entry = Workloads.Registry.find workload in
      let (Ir.Program.Any p) = entry.Workloads.Registry.make scale in
      let r = Baselines.Serial_exec.run_program p in
      Hashtbl.add cache key r;
      r

let tenant_scale cfg (p : pending) = cfg.tenants.(p.p_tenant).scale

(* Job checkers check the service runtime's promotion policy; engines
   without one are checked against HBC's. *)
let checker_config cfg =
  Sanitizer.Checker.config_of_rt
    (match cfg.service with
    | Sched_run.Hbc rt | Sched_run.Tpal rt -> rt
    | Sched_run.Openmp _ | Sched_run.Serial | Sched_run.Hybrid _ -> Hbc_core.Rt_config.hbc)

let checker_violations c =
  List.map
    (fun (v : Sanitizer.Checker.violation) ->
      let invariant = Sanitizer.Checker.invariant_name v.invariant in
      { invariant; time = v.time; message = v.message })
    (Sanitizer.Checker.violations c)

let run_job cfg serial_cache (p : pending) ~fault_plan ~grant ~checker ~pause_at ~deadline
    ~resume_from =
  let entry = Workloads.Registry.find p.p_workload in
  let (Ir.Program.Any prog) = entry.Workloads.Registry.make (tenant_scale cfg p) in
  let boundary =
    match resume_from with Some ck -> ck.Sim.Checkpoint_state.at_cycle | None -> 0
  in
  let trace =
    match checker with Some c -> Sanitizer.Checker.sink c | None -> Obs.Trace.Sink.null
  in
  let request =
    Hbc_core.Run_request.make ?deadline ?cycle_budget:p.budget_cap ?fault_plan ?pause_at
      ?resume_from ~trace ~sanitize:(checker <> None) ~promotion_budget:grant ()
  in
  match
    Sched_run.run ~request
      (Sched_run.with_machine ~workers:p.workers ~seed:p.jseed cfg.service)
      prog
  with
  | exception e ->
      (* A structured abort never escapes the executor as an exception, so
         anything raised here is a crash (e.g. an engine deadlock under an
         aggressive fault plan). The pool slot is still reclaimed after a
         deterministic penalty service time. *)
      let penalty =
        match (deadline, p.budget_cap) with
        | Some d, Some b -> Stdlib.max 1 (Stdlib.min d b - boundary)
        | Some d, None -> Stdlib.max 1 (d - boundary)
        | None, Some b -> Stdlib.max 1 (b - boundary)
        | None, None -> 1_000
      in
      {
        x_outcome = Some (Failed ("crash:" ^ Printexc.to_string e));
        x_pause = None;
        x_makespan = boundary + penalty;
        x_promotions = 0;
        x_work = 0;
        x_fp = None;
        x_mismatch = false;
        x_preempted = false;
        x_violations =
          (match checker with Some c -> checker_violations c | None -> []);
      }
  | result -> (
      let promotions = result.Sim.Run_result.metrics.Sim.Metrics.promotions in
      match result.Sim.Run_result.termination with
      | Sim.Run_result.Paused ck ->
          (* Not a terminal state: no verification, no end-of-run tiling
             check (the persistent checker keeps accumulating), and the
             violation harvest waits for the terminal episode. *)
          {
            x_outcome = None;
            x_pause = Some ck;
            x_makespan = ck.Sim.Checkpoint_state.at_cycle;
            x_promotions = promotions;
            x_work = result.Sim.Run_result.work_cycles;
            x_fp = None;
            x_mismatch = false;
            x_preempted = false;
            x_violations = [];
          }
      | term ->
          let outcome0 =
            match term with
            | Sim.Run_result.Finished -> Completed
            | Sim.Run_result.Dnf -> Deadline_exceeded
            | Sim.Run_result.Budget_exceeded _ -> Failed "budget"
            | Sim.Run_result.Guard_aborted reason -> Failed ("guard:" ^ reason)
            | Sim.Run_result.Paused _ -> assert false
          in
          let mismatch =
            cfg.verify && outcome0 = Completed
            &&
            let seq =
              serial_reference serial_cache ~workload:p.p_workload ~scale:(tenant_scale cfg p)
            in
            not (Sim.Run_result.fingerprints_close seq result)
          in
          let violations =
            match checker with
            | None -> []
            | Some c ->
                (* End-of-run tiling only applies to runs that actually
                   finished: a preempted or aborted job legitimately leaves
                   uncovered iterations behind. *)
                if term = Sim.Run_result.Finished then Sanitizer.Checker.finish c;
                checker_violations c
          in
          let outcome =
            if mismatch then Failed "mismatch"
            else if violations <> [] then Failed "invariant"
            else outcome0
          in
          {
            x_outcome = Some outcome;
            x_pause = None;
            x_makespan = Stdlib.max 1 result.Sim.Run_result.makespan;
            x_promotions = promotions;
            x_work = result.Sim.Run_result.work_cycles;
            x_fp = Some result.Sim.Run_result.fingerprint;
            x_mismatch = mismatch;
            x_preempted = result.Sim.Run_result.dnf;
            x_violations = violations;
          })

(* ------------------------------------------------------------------ *)
(* Write-ahead decision log.                                            *)
(* ------------------------------------------------------------------ *)

(* The journal is the log AND the state: the campaign is a deterministic
   function of the config, so crash recovery re-runs it from the start and
   byte-verifies every regenerated decision line against the WAL prefix
   before appending anything new. A mismatch means the log belongs to a
   different campaign (or the code changed) and recovery must not continue
   over it. A torn final line — the classic mid-write crash — is dropped
   on open, exactly the repair rule of any write-ahead log. *)

let wal_header cfg =
  Printf.sprintf "#wal v1 seed=%d pool=%d queue=%d tenants=%d service=%s policy=%s preempts=%d"
    cfg.seed cfg.pool cfg.queue_capacity (Array.length cfg.tenants) (Sched_run.family cfg.service)
    (preempt_name cfg.preempt) cfg.max_preempts

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Returns the channel (positioned at the verified end of the log) and the
   already-committed decision lines to replay against. *)
let open_wal cfg path =
  let header = wal_header cfg in
  let existing = if Sys.file_exists path then read_file path else "" in
  if existing = "" then begin
    let ch = open_out_bin path in
    output_string ch (header ^ "\n");
    flush ch;
    (ch, [||])
  end
  else begin
    let torn = existing.[String.length existing - 1] <> '\n' in
    let parts = String.split_on_char '\n' existing in
    let lines =
      (* "a\nb\n" splits to ["a";"b";""]; a torn "a\nb\nfrag" to
         ["a";"b";"frag"]. Either way the last element is dropped. *)
      match List.rev parts with [] -> [] | _ :: rest -> List.rev rest
    in
    match lines with
    | [] -> raise (Wal (Printf.sprintf "%s: torn header, no committed record to recover" path))
    | h :: prefix ->
        if h <> header then
          raise (Wal (Printf.sprintf "%s: header mismatch: log %S, config %S" path h header));
        if torn then begin
          (* Repair: rewrite the committed prefix, dropping the torn tail. *)
          let ch = open_out_bin path in
          output_string ch (header ^ "\n");
          List.iter
            (fun l ->
              output_string ch l;
              output_char ch '\n')
            prefix;
          flush ch;
          (ch, Array.of_list prefix)
        end
        else (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path, Array.of_list prefix)
  end

(* ------------------------------------------------------------------ *)
(* The server event loop.                                               *)
(* ------------------------------------------------------------------ *)

let run cfg =
  if cfg.pool < 1 then invalid_arg "Server: pool must have at least one worker";
  let jobs = generate_jobs cfg in
  let njobs = List.length jobs in
  let reports : job_report option array = Array.make njobs None in
  let decisions = Buffer.create 1024 in
  let wal_chan, wal_prefix =
    match cfg.wal with
    | None -> (None, [||])
    | Some path ->
        let ch, prefix = open_wal cfg path in
        (Some ch, prefix)
  in
  Fun.protect
    ~finally:(fun () ->
      match wal_chan with Some ch -> (try close_out ch with Sys_error _ -> ()) | None -> ())
  @@ fun () ->
  let replayed = Array.length wal_prefix in
  let wal_pos = ref 0 in
  let appended = ref 0 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string decisions s;
        Buffer.add_char decisions '\n';
        match wal_chan with
        | None -> ()
        | Some ch ->
            if !wal_pos < replayed then begin
              if wal_prefix.(!wal_pos) <> s then
                raise
                  (Wal
                     (Printf.sprintf "replay diverged at line %d: log %S, regenerated %S"
                        (!wal_pos + 2) wal_prefix.(!wal_pos) s));
              incr wal_pos
            end
            else begin
              (match cfg.wal_kill_after with
              | Some n when !appended >= n ->
                  (* Crash-injection hook: tear the next record mid-write,
                     as a power cut would, then die. *)
                  output_string ch (String.sub s 0 (Stdlib.max 1 (String.length s / 2)));
                  flush ch;
                  raise Killed
              | _ -> ());
              output_string ch s;
              output_char ch '\n';
              flush ch;
              incr appended;
              incr wal_pos
            end)
      fmt
  in
  let lifecycle = Lifecycle.create () in
  let emit ~time ev = Lifecycle.record lifecycle ~time ev in
  let now = ref 0 in
  let breaker_opens = ref 0 in
  let ck_count = ref 0 in
  let resume_count = ref 0 in
  let weights = Array.map (fun s -> Stdlib.max 1 s.weight) cfg.tenants in
  let meter =
    Meter.create ~config:cfg.meter ~weights
      ~emit:(fun ~time ~tenant ~amount ->
        emit ~time (Lifecycle.Budget_refill { tenant; amount });
        line "t=%d refill tenant=%d amount=%d" time tenant amount)
      ()
  in
  let breakers =
    Array.init (Array.length cfg.tenants) (fun tenant ->
        Breaker.create ~config:cfg.breaker
          ~on_transition:(fun ~from_state ~to_state ->
            if to_state = Breaker.Open then incr breaker_opens;
            emit ~time:!now
              (Lifecycle.Breaker_transition
                 {
                   tenant;
                   from_state = Breaker.state_name from_state;
                   to_state = Breaker.state_name to_state;
                 });
            line "t=%d breaker tenant=%d %s->%s" !now tenant (Breaker.state_name from_state)
              (Breaker.state_name to_state))
          ())
  in
  let queue = Admission.create ~capacity:cfg.queue_capacity ~weights in
  let serial_cache = Hashtbl.create 8 in
  let ctxs : (int, jctx) Hashtbl.t = Hashtbl.create 32 in
  let job_violations = ref [] in
  let free = ref cfg.pool in
  (* Event queue: sorted (time, seq) list. Arrivals enter first (they are
     known upfront), completions and deferred retries as they are
     scheduled; the global [seq] makes same-tick ordering total and
     deterministic. *)
  let events = ref [] in
  let seq = ref 0 in
  let push_event time ev =
    let s = !seq in
    incr seq;
    let rec ins = function
      | [] -> [ (time, s, ev) ]
      | ((t', s', _) as x) :: rest ->
          if (time, s) < (t', s') then (time, s, ev) :: x :: rest else x :: ins rest
    in
    events := ins !events
  in
  List.iter (fun p -> push_event p.submit (Arrival p)) jobs;
  let finalize (p : pending) ~start_time ~outcome ~granted ~promotions ~service ~work ~fp
      ~mismatch ~episodes =
    let sojourn =
      match outcome with
      | Completed | Deadline_exceeded | Failed _ -> Some (!now - p.submit)
      | Rejected _ -> None
    in
    reports.(p.id) <-
      Some
        {
          job = p.id;
          tenant = p.p_tenant;
          workload = p.p_workload;
          submit_time = p.submit;
          start_time;
          finish_time = !now;
          outcome;
          granted;
          promotions;
          service_cycles = service;
          sojourn;
          work_cycles = work;
          fingerprint = fp;
          mismatch;
          episodes;
        }
  in
  let shed (p : pending) reason =
    emit ~time:!now (Lifecycle.Job_shed { job = p.id; tenant = p.p_tenant; reason });
    line "t=%d shed job=%d tenant=%d reason=%s" !now p.id p.p_tenant reason;
    finalize p ~start_time:None ~outcome:(Rejected reason) ~granted:0 ~promotions:0 ~service:None
      ~work:0 ~fp:None ~mismatch:false ~episodes:0
  in
  let expired (p : pending) =
    match p.deadline_abs with Some d -> !now >= d | None -> false
  in
  let rec dispatch () =
    match Admission.pop queue ~fits:(fun p -> expired p || p.workers <= !free) with
    | None -> ()
    | Some (_, p) when expired p ->
        (* The deadline passed while the job sat in the queue: it still
           terminates with full accounting — including any episodes it
           already ran before being requeued — it just never holds the
           pool again. *)
        let ctx = Hashtbl.find_opt ctxs p.id in
        let episodes = match ctx with Some c -> c.episodes | None -> 0 in
        let used = match ctx with Some c -> c.used_before | None -> 0 in
        let work = match ctx with Some c -> c.work_before | None -> 0 in
        let granted = match ctx with Some c -> c.granted_total | None -> 0 in
        let started = match ctx with Some c when episodes > 0 -> Some c.first_start | _ -> None in
        let service = match ctx with Some c when c.boundary > 0 -> Some c.boundary | _ -> None in
        emit ~time:!now
          (Lifecycle.Job_finished
             { job = p.id; tenant = p.p_tenant; state = "deadline"; promotions = used });
        line "t=%d finish job=%d tenant=%d outcome=deadline service=%d" !now p.id p.p_tenant
          (Option.value service ~default:0);
        finalize p ~start_time:started ~outcome:Deadline_exceeded ~granted ~promotions:used
          ~service ~work ~fp:None ~mismatch:false ~episodes;
        dispatch ()
    | Some (tenant, p) ->
        let ctx =
          match Hashtbl.find_opt ctxs p.id with
          | Some c -> c
          | None ->
              let c =
                {
                  episodes = 0;
                  ck = None;
                  boundary = 0;
                  granted_total = 0;
                  remaining = 0;
                  used_before = 0;
                  work_before = 0;
                  first_start = !now;
                  jchecker =
                    (if cfg.sanitize then
                       Some (Sanitizer.Checker.create (checker_config cfg))
                     else None);
                }
              in
              Hashtbl.add ctxs p.id c;
              c
        in
        let resume = ctx.ck in
        (* A resumed episode asks for exactly the unconsumed part of its
           previous grant — the amount refunded at the pause; when the
           meter can honour it, the job's promotion decisions are
           byte-identical to the uninterrupted run. *)
        let want = match resume with None -> p.want | Some _ -> ctx.remaining in
        let grant = Meter.grant meter ~tenant ~want in
        ctx.granted_total <- ctx.granted_total + grant;
        (match resume with
        | None ->
            emit ~time:!now (Lifecycle.Job_started { job = p.id; tenant; budget = grant });
            line "t=%d start job=%d tenant=%d workers=%d grant=%d deadline=%s" !now p.id tenant
              p.workers grant
              (match p.deadline_abs with Some d -> string_of_int d | None -> "none")
        | Some ck ->
            incr resume_count;
            emit ~time:!now
              (Lifecycle.Job_resumed { job = p.id; tenant; episode = ctx.episodes; budget = grant });
            line "t=%d resume job=%d tenant=%d episode=%d grant=%d boundary=%d" !now p.id tenant
              ctx.episodes grant ck.Sim.Checkpoint_state.at_cycle);
        free := !free - p.workers;
        (* Deadline-as-quantum: under Pause_and_requeue the relative
           deadline draw is the per-episode compute quantum. Episodes
           below the preemption cap are armed with a cooperative pause at
           the next quantum boundary; the final allowed episode runs
           against a hard inner deadline, so a job that never finishes
           still terminates as Deadline_exceeded. *)
        let pause_at, deadline =
          match (cfg.preempt, p.p_quantum) with
          | Cancel, _ -> (None, Option.map (fun d -> Stdlib.max 1 (d - !now)) p.deadline_abs)
          | Pause_and_requeue, None -> (None, None)
          | Pause_and_requeue, Some q ->
              if ctx.episodes < cfg.max_preempts then (Some (ctx.boundary + q), None)
              else (None, Some (ctx.boundary + q))
        in
        let x =
          run_job cfg serial_cache p ~fault_plan:cfg.tenants.(tenant).fault_plan ~grant
            ~checker:ctx.jchecker ~pause_at ~deadline ~resume_from:resume
        in
        let service = Stdlib.max 1 (x.x_makespan - ctx.boundary) in
        push_event (!now + service)
          (Completion { c_job = p; c_grant = grant; c_service = service; c_exec = x });
        dispatch ()
  in
  let on_arrival (p : pending) =
    if p.p_retries = 0 then begin
      emit ~time:!now (Lifecycle.Job_submitted { job = p.id; tenant = p.p_tenant });
      line "t=%d submit job=%d tenant=%d wl=%s" !now p.id p.p_tenant p.p_workload
    end;
    let b = breakers.(p.p_tenant) in
    let was_closed = Breaker.state b = Breaker.Closed in
    if not (Breaker.admit b ~now:!now) then begin
      match cfg.preempt with
      | Pause_and_requeue when p.p_retries < cfg.max_preempts ->
          (* Quarantined, not shed: defer the submission past the breaker's
             cooldown and try admission again. *)
          let at = Breaker.retry_at b ~now:!now in
          line "t=%d defer job=%d tenant=%d retry=%d until=%d" !now p.id p.p_tenant
            (p.p_retries + 1) at;
          push_event at (Arrival { p with p_retries = p.p_retries + 1 })
      | _ -> shed p "breaker-open"
    end
    else begin
      let p = { p with p_probe = not was_closed } in
      if not (Admission.offer queue ~tenant:p.p_tenant ~priority:p.p_priority p) then
        shed p "queue-full"
      else begin
        emit ~time:!now
          (Lifecycle.Job_admitted
             { job = p.id; tenant = p.p_tenant; queued = Admission.length queue });
        line "t=%d admit job=%d tenant=%d depth=%d" !now p.id p.p_tenant (Admission.length queue);
        dispatch ()
      end
    end
  in
  let on_completion (c : completion) =
    let p = c.c_job in
    let x = c.c_exec in
    free := !free + p.workers;
    Admission.charge queue ~tenant:p.p_tenant ~cost:(c.c_service * p.workers);
    let ctx = Hashtbl.find ctxs p.id in
    let used_episode = x.x_promotions - ctx.used_before in
    match x.x_pause with
    | Some ck ->
        let q = match p.p_quantum with Some q -> q | None -> assert false in
        let requeued = { p with deadline_abs = Some (!now + q) } in
        if Admission.offer queue ~tenant:p.p_tenant ~priority:p.p_priority requeued then begin
          incr ck_count;
          emit ~time:!now
            (Lifecycle.Job_checkpointed
               { job = p.id; tenant = p.p_tenant; at_cycle = ck.Sim.Checkpoint_state.at_cycle });
          line "t=%d checkpoint job=%d tenant=%d cycle=%d episode=%d digest=%s" !now p.id
            p.p_tenant ck.Sim.Checkpoint_state.at_cycle (ctx.episodes + 1)
            (Sim.Checkpoint_state.digest ck);
          Meter.refund meter ~now:!now ~tenant:p.p_tenant (c.c_grant - used_episode);
          ctx.remaining <- Stdlib.max 0 (c.c_grant - used_episode);
          ctx.episodes <- ctx.episodes + 1;
          ctx.ck <- Some ck;
          ctx.boundary <- ck.Sim.Checkpoint_state.at_cycle;
          ctx.used_before <- x.x_promotions;
          ctx.work_before <- x.x_work;
          line "t=%d requeue job=%d tenant=%d depth=%d deadline=%d" !now p.id p.p_tenant
            (Admission.length queue) (!now + q);
          dispatch ()
        end
        else begin
          (* No room to re-enter admission: the pause degrades to a cancel
             with full cumulative accounting (never a silent drop). *)
          emit ~time:!now (Lifecycle.Job_preempted { job = p.id; tenant = p.p_tenant });
          line "t=%d preempt job=%d tenant=%d reason=requeue-full" !now p.id p.p_tenant;
          emit ~time:!now
            (Lifecycle.Job_finished
               { job = p.id; tenant = p.p_tenant; state = "deadline"; promotions = x.x_promotions });
          line "t=%d finish job=%d tenant=%d outcome=deadline promotions=%d service=%d" !now p.id
            p.p_tenant x.x_promotions c.c_service;
          Meter.refund meter ~now:!now ~tenant:p.p_tenant (c.c_grant - used_episode);
          finalize p ~start_time:(Some ctx.first_start) ~outcome:Deadline_exceeded
            ~granted:ctx.granted_total ~promotions:x.x_promotions
            ~service:(Some ck.Sim.Checkpoint_state.at_cycle) ~work:x.x_work ~fp:None
            ~mismatch:false ~episodes:ctx.episodes;
          dispatch ()
        end
    | None ->
        let outcome = match x.x_outcome with Some o -> o | None -> assert false in
        if x.x_preempted then begin
          emit ~time:!now (Lifecycle.Job_preempted { job = p.id; tenant = p.p_tenant });
          line "t=%d preempt job=%d tenant=%d" !now p.id p.p_tenant
        end;
        emit ~time:!now
          (Lifecycle.Job_finished
             {
               job = p.id;
               tenant = p.p_tenant;
               state = outcome_name outcome;
               promotions = x.x_promotions;
             });
        line "t=%d finish job=%d tenant=%d outcome=%s promotions=%d service=%d" !now p.id
          p.p_tenant (outcome_name outcome) x.x_promotions c.c_service;
        Meter.refund meter ~now:!now ~tenant:p.p_tenant (c.c_grant - used_episode);
        (match outcome with
        | Completed -> Breaker.record ~probe:p.p_probe breakers.(p.p_tenant) ~now:!now ~ok:true
        | Failed _ -> Breaker.record ~probe:p.p_probe breakers.(p.p_tenant) ~now:!now ~ok:false
        | Deadline_exceeded | Rejected _ -> ());
        List.iter (fun v -> job_violations := (Some p.id, v) :: !job_violations) x.x_violations;
        let start_time, service_total =
          match cfg.preempt with
          | Cancel -> (Some (!now - c.c_service), Some c.c_service)
          | Pause_and_requeue -> (Some ctx.first_start, Some x.x_makespan)
        in
        finalize p ~start_time ~outcome ~granted:ctx.granted_total ~promotions:x.x_promotions
          ~service:service_total ~work:x.x_work ~fp:x.x_fp ~mismatch:x.x_mismatch
          ~episodes:ctx.episodes;
        dispatch ()
  in
  let makespan = ref 0 in
  let rec loop () =
    match !events with
    | [] -> ()
    | (time, _, ev) :: rest ->
        events := rest;
        now := time;
        makespan := Stdlib.max !makespan time;
        Meter.advance meter ~now:time;
        (match ev with Arrival p -> on_arrival p | Completion c -> on_completion c);
        loop ()
  in
  (* Epoch-0 credit lands before the first arrival. *)
  Meter.advance meter ~now:0;
  loop ();
  Lifecycle.finish lifecycle;
  (* Every submitted job is shed or finished, so every slot is filled. A
     job that never terminated is a job-conservation violation of the
     lifecycle check, and leaves the report list short of [submitted]. *)
  let reports = List.filter_map Fun.id (Array.to_list reports) in
  let count p = List.length (List.filter p reports) in
  let completed = List.filter (fun r -> r.outcome = Completed) reports in
  let sojourns =
    List.filter_map (fun r -> Option.map Float.of_int r.sojourn) completed
  in
  let stats =
    {
      submitted = njobs;
      admitted = count (fun r -> match r.outcome with Rejected _ -> false | _ -> true);
      shed = count (fun r -> match r.outcome with Rejected _ -> true | _ -> false);
      completed = List.length completed;
      deadline_exceeded = count (fun r -> r.outcome = Deadline_exceeded);
      failed = count (fun r -> match r.outcome with Failed _ -> true | _ -> false);
      checkpointed = !ck_count;
      resumed = !resume_count;
      sojourn_p50 = Report.Stats.percentile 50.0 sojourns;
      sojourn_p95 = Report.Stats.percentile 95.0 sojourns;
      sojourn_p99 = Report.Stats.percentile 99.0 sojourns;
      goodput =
        (if !makespan = 0 then 0.0
         else
           Float.of_int (List.fold_left (fun acc r -> acc + r.work_cycles) 0 completed)
           /. Float.of_int !makespan);
      makespan = !makespan;
      breaker_opens = !breaker_opens;
    }
  in
  let violations =
    List.map
      (fun (v : Lifecycle.violation) ->
        let invariant = Lifecycle.invariant_name v.invariant in
        (None, { invariant; time = v.time; message = v.message }))
      (Lifecycle.violations lifecycle)
    @ List.rev !job_violations
  in
  {
    reports;
    stats;
    decisions = Buffer.contents decisions;
    events = Lifecycle.events lifecycle;
    violations;
    wal_replayed = replayed;
  }

let summary r =
  let s = r.stats in
  Printf.sprintf
    "serve: %d submitted, %d admitted, %d shed, %d completed, %d deadline, %d failed | %d \
     checkpoint(s), %d resume(s) | sojourn p50=%.0f p95=%.0f p99=%.0f | goodput=%.3f work/cycle \
     | makespan=%d | breaker opens=%d | %d violation(s)"
    s.submitted s.admitted s.shed s.completed s.deadline_exceeded s.failed s.checkpointed
    s.resumed s.sojourn_p50 s.sojourn_p95 s.sojourn_p99 s.goodput s.makespan s.breaker_opens
    (List.length r.violations)
