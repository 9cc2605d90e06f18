(* The virtual-time simulator as a {!Sched.Backend_intf.BACKEND}: worker
   identity and time come from the engine, deques are [Sim.Deque], costs
   advance the engine clock with per-kind metrics attribution, and idling
   is engine parking behind the fault-aware exponential backoff. Body
   work and its memory traffic are charged here too, on the engine's one
   shared memory bus, for every simulator client of the core. The
   engine is single-fibered, so [critical] is a plain call and emission
   order is exactly the historical executor's — the functor instantiation
   is byte-identical to the pre-refactor code. [create] and [supervise]
   are the one envelope every simulated run is built and capped by. *)

type t = {
  eng : Sim.Engine.t;
  cost : Sim.Cost_model.t;
  metrics : Sim.Metrics.t;
  trace : Obs.Trace.Sink.t;  (* counting sink teed with the observer *)
  capture : bool;  (* the observer wants events *)
  inj : Sim.Fault_injector.t;
  hb : Heartbeat.t;
  polling : bool;  (* software polling: no downgrade changes a worker's mechanism *)
  transfer_cost : int;  (* a chunked leaf batch's residual-chunk carry; 0 unless transferring *)
  deques : Sched.Task.t Sim.Deque.t array;
  steal_fails : int array;  (* consecutive dry steal rounds, drives backoff *)
  bug : Interp.seeded_bug option;  (* armed seeded scheduler bug (tests/fuzzer) *)
  mutable bug_fired : bool;  (* [Lose_stolen_task] fires at most once per run *)
}

let create (cfg : Rt_config.t) (request : Run_request.t) ~observer ~bug =
  let workers = cfg.Rt_config.workers and cost = cfg.Rt_config.cost in
  let eng =
    Sim.Engine.create ~seed:cfg.Rt_config.seed
      ~bus_bytes_per_cycle:cost.Sim.Cost_model.dram_bytes_per_cycle ~num_workers:workers ()
  in
  let metrics = Sim.Metrics.create () in
  let trace = Obs.Trace.Sink.tee (Sim.Metrics.counting_sink metrics) observer in
  let inj =
    Sim.Fault_injector.create
      (Option.value request.Run_request.fault_plan ~default:Sim.Fault_plan.none)
      ~num_workers:workers ~trace
      ~now:(fun () -> Sim.Engine.now eng)
      ()
  in
  {
    eng;
    cost;
    metrics;
    trace;
    capture = Obs.Trace.Sink.enabled observer;
    inj;
    hb = Heartbeat.create ~injector:inj ~observer cfg eng metrics;
    polling = cfg.Rt_config.mechanism = Rt_config.Software_polling;
    transfer_cost =
      (if cfg.Rt_config.chunk_transferring then cost.Sim.Cost_model.chunk_transfer_cost else 0);
    deques = Array.init workers (fun _ -> Sim.Deque.create ());
    steal_fails = Array.make workers 0;
    bug;
    bug_fired = false;
  }

exception Did_not_finish

(* The request's caps around one run. A per-job deadline is a second
   DNF-style cap: whichever of the two fires first preempts the run, and
   the server maps a deadline-armed DNF to its Deadline_exceeded outcome. *)
let supervise eng metrics (request : Run_request.t) ~fingerprint body =
  (match (request.Run_request.max_cycles, request.Run_request.deadline) with
  | Some a, Some b -> Some (Stdlib.min a b)
  | cap, None | None, cap -> cap)
  |> Option.iter (fun time -> Sim.Engine.schedule_at eng ~time (fun () -> raise Did_not_finish));
  Option.iter (Sim.Engine.set_budget eng) request.Run_request.cycle_budget;
  Option.iter (fun guard -> Sim.Engine.set_guard eng guard) request.Run_request.guard;
  let termination =
    match body () with
    | termination -> termination
    | exception Did_not_finish -> Sim.Run_result.Dnf
    | exception Sim.Engine.Budget_exceeded { budget; time } ->
        Sim.Run_result.Budget_exceeded { budget; at = time }
    | exception Sim.Engine.Guard_stop reason -> Sim.Run_result.Guard_aborted reason
  in
  {
    Sim.Run_result.makespan = Sim.Engine.max_time eng;
    metrics;
    fingerprint = fingerprint ();
    work_cycles = metrics.Sim.Metrics.work_cycles;
    dnf = termination = Sim.Run_result.Dnf;
    termination;
    trace = Obs.Trace.Sink.captured request.Run_request.trace;
    sanitizer = None;
  }

let num_workers b = Array.length b.deques

let worker_id b = Sim.Engine.worker_id b.eng

let now b = Sim.Engine.now b.eng

let capture b = b.capture

let critical _b f = f ()

(* An untraced run counts each event straight into the metrics, the
   fold the counting sink applies, without stamping a time and worker
   nobody reads. A traced run sends it through the tee. *)
let emit b ev =
  if b.capture then Obs.Trace.Sink.emit b.trace ~time:(now b) ~worker:(worker_id b) ev
  else Sim.Metrics.count_event b.metrics ev

(* The simulated charging path, over the engine and the metrics alone,
   so the OpenMP baseline charges through this one copy too. Overhead:
   one engine advance, per-kind attribution. *)
let charge_overhead eng metrics kind c =
  if c > 0 then begin
    Sim.Engine.advance eng c;
    Sim.Metrics.add_overhead metrics kind c
  end

let charge_work eng metrics c =
  metrics.Sim.Metrics.work_cycles <- metrics.Sim.Metrics.work_cycles + c;
  if c > 0 then Sim.Engine.advance eng c

(* The hot charges below make one call into lib/sim, [Sim.Engine.charge],
   and attribute their kinds with plain stores: under the dev profile's
   [-opaque], each [Sim.Metrics.add_overhead] would be a call of its own.
   The slots are read from [Sim.Metrics.kind_index] once. *)
let slot = Sim.Metrics.kind_index

let chunk_transfer_slot = slot Sim.Metrics.Chunk_transfer
and chunking_slot = slot Sim.Metrics.Chunking
and closure_slot = slot Sim.Metrics.Closure
and membus_slot = slot Sim.Metrics.Membus
and outline_call_slot = slot Sim.Metrics.Outline_call
and poll_slot = slot Sim.Metrics.Poll
and promotion_branch_slot = slot Sim.Metrics.Promotion_branch

(* [Sim.Metrics.add_overhead] by slot. *)
let[@inline] attribute (m : Sim.Metrics.t) slot c =
  m.Sim.Metrics.overhead_cycles <- m.Sim.Metrics.overhead_cycles + c;
  let by_kind = m.Sim.Metrics.overhead_by_kind in
  by_kind.(slot) <- by_kind.(slot) + c

(* Work plus overheads in a single advance (hot path: one event per
   batch). The caller attributes [overhead] to its kinds after the call.
   Memory traffic is booked on the engine's bus; time past the compute
   cost is a bandwidth stall. *)
let charge_mixed eng metrics ~work ~overhead ~bytes =
  let compute = work + overhead in
  let total = Sim.Engine.charge eng ~compute ~bytes in
  metrics.Sim.Metrics.work_cycles <- metrics.Sim.Metrics.work_cycles + work;
  if total > compute then attribute metrics membus_slot (total - compute)

let overhead b kind c = charge_overhead b.eng b.metrics kind c

let add_work b c = charge_work b.eng b.metrics c

let advance_mixed b ~work ~overhead ~bytes = charge_mixed b.eng b.metrics ~work ~overhead ~bytes

(* A chunked batch that did not poll pays only the chunk countdown and
   its carry; every other batch pays its poll and the promotion-ready
   branch. One call into lib/sim, as [charge_mixed] makes. Under
   software polling every worker polls and pays the cost model's poll;
   only an interrupt mechanism asks [Heartbeat] whether a worker was
   downgraded to polling. *)
let charge_batch b ~worker ~work ~bytes ~chunked ~polled =
  let cost = b.cost and transfer = b.transfer_cost in
  let chunk = if chunked then 2 + transfer else 0 and checked = polled || not chunked in
  let poll =
    if not checked then 0
    else if b.polling then cost.Sim.Cost_model.poll_cost
    else Heartbeat.poll_cost b.hb ~worker
  and branch = if checked then cost.Sim.Cost_model.promotion_branch_cost else 0 in
  let compute = work + chunk + poll + branch in
  let total = Sim.Engine.charge b.eng ~compute ~bytes in
  let m = b.metrics in
  m.Sim.Metrics.work_cycles <- m.Sim.Metrics.work_cycles + work;
  if total > compute then attribute m membus_slot (total - compute);
  if chunked then begin
    attribute m chunking_slot 2;
    attribute m chunk_transfer_slot transfer
  end;
  attribute m poll_slot poll;
  attribute m promotion_branch_slot branch

let charge_slice_entry b =
  let outline = b.cost.Sim.Cost_model.outline_call_cost
  and closure = b.cost.Sim.Cost_model.closure_load_cost in
  if outline + closure > 0 then begin
    Sim.Engine.advance b.eng (outline + closure);
    attribute b.metrics outline_call_slot outline;
    attribute b.metrics closure_slot closure
  end

let charge_latch b ~bytes =
  let branch = b.cost.Sim.Cost_model.promotion_branch_cost in
  charge_mixed b.eng b.metrics ~work:0 ~overhead:branch ~bytes;
  attribute b.metrics promotion_branch_slot branch

let push b task = Sim.Deque.push_bottom b.deques.(worker_id b) task

let pop b = Sim.Deque.pop_bottom b.deques.(worker_id b)

let steal_from b ~victim = Sim.Deque.steal b.deques.(victim)

let deque_empty b ~worker = Sim.Deque.is_empty b.deques.(worker)

let random_victim b = Sim.Sim_rng.int (Sim.Engine.rng b.eng) (num_workers b)

let steal_vetoed b = Sim.Fault_injector.steal_fails b.inj ~worker:(worker_id b)

let keep_stolen b _task =
  if b.bug = Some Interp.Lose_stolen_task && not b.bug_fired then begin
    (* Seeded bug: the stolen task vanishes — removed from the victim's
       deque but never executed. *)
    b.bug_fired <- true;
    false
  end
  else true

(* Injected OS-preemption stall at a scheduling point (no-op without an
   active fault plan). *)
let pre_task b =
  let c = Sim.Fault_injector.stall_cycles b.inj ~worker:(worker_id b) in
  if c > 0 then begin
    Sim.Engine.advance b.eng c;
    Sim.Metrics.add_overhead b.metrics Sim.Metrics.Fault_stall c
  end

let on_task_claim b = b.steal_fails.(worker_id b) <- 0

let wake_one b =
  let n = num_workers b in
  let start = Sim.Sim_rng.int (Sim.Engine.rng b.eng) n in
  let rec find k =
    if k < n then begin
      let w = (start + k) mod n in
      if Sim.Engine.is_parked b.eng w then Sim.Engine.unpark b.eng w else find (k + 1)
    end
  in
  find 0

let unpark b ~worker = Sim.Engine.unpark b.eng worker

(* A dry steal round under fault injection backs off exponentially (base
   [idle_backoff], jittered, bounded) before parking: parking instantly
   makes a worker blind to the end of an injected contention burst, while
   unbounded spinning burns the makespan. Zero-fault runs park
   immediately, exactly as before. *)
let backoff_rounds = 6

let should_park b =
  if not (Sim.Fault_injector.active b.inj) then true
  else begin
    let w = worker_id b in
    let f = b.steal_fails.(w) in
    if f >= backoff_rounds then begin
      b.steal_fails.(w) <- 0;
      true
    end
    else begin
      b.steal_fails.(w) <- f + 1;
      let d = b.cost.Sim.Cost_model.idle_backoff lsl f in
      let d = d + Sim.Fault_injector.backoff_jitter b.inj ~worker:w ~limit:(1 + (d / 2)) in
      overhead b Sim.Metrics.Idle_backoff d;
      false
    end
  end

(* The wait count is ignored: a parked fiber stays parked until an
   explicit unpark, and reading the count here would move no virtual time. *)
let idle b ~until:_ = if should_park b then Sim.Engine.park b.eng

let set_busy b ~worker ~busy = Heartbeat.set_busy b.hb ~worker busy

let charge_push b = overhead b Sim.Metrics.Promotion b.cost.Sim.Cost_model.deque_push_cost

let charge_pop b = overhead b Sim.Metrics.Join b.cost.Sim.Cost_model.deque_pop_cost

let charge_steal_attempt b = overhead b Sim.Metrics.Steal b.cost.Sim.Cost_model.steal_attempt_cost

let charge_steal_success b = overhead b Sim.Metrics.Steal b.cost.Sim.Cost_model.steal_success_cost

let charge_join_slow b = overhead b Sim.Metrics.Join b.cost.Sim.Cost_model.join_slow_path_cost
