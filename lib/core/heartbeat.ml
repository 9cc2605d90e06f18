type t = {
  config : Rt_config.t;
  eng : Sim.Engine.t;
  metrics : Sim.Metrics.t;
  trace : Obs.Trace.Sink.t;  (* counting sink teed with the observer *)
  observed : bool;  (* the observer is enabled: events go through [trace] *)
  inj : Sim.Fault_injector.t;
  busy : bool array;
  (* software polling: per worker, the first heartbeat boundary (a
     multiple of the interval) it has not seen; a poll whose clock has
     reached it detects a beat *)
  next_beat : int array;
  (* interrupt mechanisms: pending-delivery flags *)
  pending : bool array;
  (* starvation watchdog: consecutive missed/undelivered beats per busy
     worker; at [watchdog_k] the worker falls back to software polling *)
  missed_streak : int array;
  downgraded : bool array;
  mutable cancel : (unit -> unit) option;
  mutable stopped : bool;
  mutable stretch_debt : int;  (* ping thread: accumulated period overrun *)
}

let create ?injector ?(observer = Obs.Trace.Sink.null) config eng metrics =
  let n = Sim.Engine.num_workers eng in
  let inj =
    match injector with Some i -> i | None -> Sim.Fault_injector.inactive ~num_workers:n
  in
  {
    config;
    eng;
    metrics;
    trace = Obs.Trace.Sink.tee (Sim.Metrics.counting_sink metrics) observer;
    observed = Obs.Trace.Sink.enabled observer;
    inj;
    busy = Array.make n false;
    next_beat = Array.make n config.Rt_config.cost.Sim.Cost_model.heartbeat_interval;
    pending = Array.make n false;
    missed_streak = Array.make n 0;
    downgraded = Array.make n false;
    cancel = None;
    stopped = false;
    stretch_debt = 0;
  }

let interval t = t.config.Rt_config.cost.Sim.Cost_model.heartbeat_interval

(* Untraced, an event is counted straight into the metrics (the counting
   sink's own fold), with no time or worker stamp; traced, it goes
   through the tee. *)
let emit t w ev =
  if t.observed then Obs.Trace.Sink.emit t.trace ~time:(Sim.Engine.now t.eng) ~worker:w ev
  else Sim.Metrics.count_event t.metrics ev

(* The first interval boundary strictly after [time]: a worker whose
   polling baseline starts at [time] has seen every beat up to it. *)
let boundary_after t time =
  let iv = interval t in
  ((time / iv) + 1) * iv

(* A downgraded worker has left the interrupt pool: it neither receives
   broadcast/signal beats nor pays delivery costs — it polls. *)
let effective t worker =
  if t.downgraded.(worker) then Rt_config.Software_polling else t.config.Rt_config.mechanism

let is_downgraded t ~worker = t.downgraded.(worker)

(* Watchdog accounting. Only armed while fault injection is active, so the
   graceful-degradation path cannot perturb a fault-free run. *)
let note_missed t w =
  if
    Sim.Fault_injector.active t.inj
    && t.config.Rt_config.mechanism <> Rt_config.Software_polling
    && not t.downgraded.(w)
  then begin
    t.missed_streak.(w) <- t.missed_streak.(w) + 1;
    if t.missed_streak.(w) >= t.config.Rt_config.watchdog_k then begin
      t.downgraded.(w) <- true;
      emit t w Obs.Trace.Mechanism_downgrade;
      (* The polling baseline starts at the downgrade instant so the idle
         backlog does not surface as a burst of beats. *)
      t.next_beat.(w) <- boundary_after t (Sim.Engine.now t.eng)
    end
  end

(* A beat reaching worker [w]'s pending flag; an unconsumed previous beat is
   overwritten and counts missed (and feeds the watchdog). *)
let deliver t w =
  if t.pending.(w) then begin
    emit t w Obs.Trace.Heartbeat_missed;
    note_missed t w
  end
  else t.pending.(w) <- true

let kernel_module_beat t () =
  for w = 0 to Array.length t.busy - 1 do
    if t.busy.(w) && not t.downgraded.(w) then begin
      emit t w Obs.Trace.Heartbeat_generated;
      if Sim.Fault_injector.drop_beat t.inj ~worker:w then begin
        emit t w Obs.Trace.Heartbeat_missed;
        note_missed t w
      end
      else begin
        let j = Sim.Fault_injector.delivery_jitter t.inj ~worker:w in
        if j = 0 then deliver t w
        else
          Sim.Engine.schedule_at t.eng ~time:(Sim.Engine.now t.eng + j) (fun () ->
              if not t.downgraded.(w) then deliver t w)
      end
    end
  done

(* The ping thread is one sequential sender: each beat it walks the busy
   workers issuing one POSIX signal at a time. When signaling the team takes
   longer than the heartbeat interval, the next beat starts late — the
   effective heartbeat rate stretches and the difference shows up as missed
   beats, uniformly over workers (the paper reports up to 45% missed). *)
let rec ping_thread_beat t scheduled_time () =
  if not t.stopped then begin
    let beat_time = Sim.Engine.now t.eng in
    let send = t.config.Rt_config.cost.Sim.Cost_model.signal_send_cost in
    let busy_workers = ref [] in
    for w = Array.length t.busy - 1 downto 0 do
      if t.busy.(w) && not t.downgraded.(w) then busy_workers := w :: !busy_workers
    done;
    let finish = ref beat_time in
    List.iteri
      (fun i w ->
        (* the sender spends the send slot whether or not the signal is
           lost or delayed in delivery *)
        let delivery = beat_time + ((i + 1) * send) in
        finish := delivery;
        emit t w Obs.Trace.Heartbeat_generated;
        if Sim.Fault_injector.drop_beat t.inj ~worker:w then begin
          emit t w Obs.Trace.Heartbeat_missed;
          note_missed t w
        end
        else begin
          let j = Sim.Fault_injector.delivery_jitter t.inj ~worker:w in
          Sim.Engine.schedule_at t.eng ~time:(delivery + j) (fun () ->
              if not t.downgraded.(w) then deliver t w)
        end)
      !busy_workers;
    (* Next beat: on schedule if the team was signaled in time, otherwise as
       soon as the sender is free; skipped periods are lost heartbeats. *)
    let next_nominal = scheduled_time + interval t in
    let next = Int.max next_nominal !finish in
    (* Period overrun accumulates; every full interval of accumulated debt
       is one heartbeat the machine never received — generated and missed,
       one pair of events per busy worker. *)
    t.stretch_debt <- t.stretch_debt + (next - next_nominal);
    while t.stretch_debt >= interval t do
      t.stretch_debt <- t.stretch_debt - interval t;
      List.iter
        (fun w ->
          emit t w Obs.Trace.Heartbeat_generated;
          emit t w Obs.Trace.Heartbeat_missed)
        !busy_workers
    done;
    Sim.Engine.schedule_at t.eng ~time:next (ping_thread_beat t next)
  end

let start t =
  let arm beat =
    t.cancel <- Some (Sim.Engine.every t.eng ~start:(interval t) ~interval:(interval t) beat)
  in
  match t.config.Rt_config.mechanism with
  | Rt_config.Software_polling -> ()
  | Rt_config.Interrupt_kernel_module -> arm (kernel_module_beat t)
  | Rt_config.Interrupt_ping_thread ->
      Sim.Engine.schedule_at t.eng ~time:(interval t) (ping_thread_beat t (interval t))

let stop t =
  t.stopped <- true;
  match t.cancel with
  | Some cancel ->
      cancel ();
      t.cancel <- None
  | None -> ()

let set_busy t ~worker v =
  t.busy.(worker) <- v;
  if v && effective t worker = Rt_config.Software_polling then
    t.next_beat.(worker) <- boundary_after t (Sim.Engine.now t.eng)

let poll_cost t ~worker =
  match effective t worker with
  | Rt_config.Software_polling -> t.config.Rt_config.cost.Sim.Cost_model.poll_cost
  | Rt_config.Interrupt_kernel_module | Rt_config.Interrupt_ping_thread -> 0

let consume t ~worker ~count_poll =
  let cm = t.config.Rt_config.cost in
  match effective t worker with
  | Rt_config.Software_polling ->
      if count_poll then emit t worker Obs.Trace.Poll;
      (* A beat is due when the clock has crossed the next boundary: the
         rule [now / interval > last seen interval] without dividing. The
         division runs only on a detection, to count the beats passed. *)
      let now = Sim.Engine.now t.eng and next = t.next_beat.(worker) in
      if now >= next then begin
        let iv = interval t in
        let cur = now / iv and last = (next / iv) - 1 in
        t.next_beat.(worker) <- (cur + 1) * iv;
        (* One event per beat in the gap: the one this poll detects plus
           [gap - 1] the worker slept through. *)
        let gap = cur - last in
        for _ = 1 to gap do
          emit t worker Obs.Trace.Heartbeat_generated
        done;
        emit t worker Obs.Trace.Heartbeat_detected;
        for _ = 1 to gap - 1 do
          emit t worker Obs.Trace.Heartbeat_missed
        done;
        true
      end
      else false
  | (Rt_config.Interrupt_kernel_module | Rt_config.Interrupt_ping_thread) as mech ->
      if t.pending.(worker) then begin
        t.pending.(worker) <- false;
        t.missed_streak.(worker) <- 0;
        let c =
          (match mech with
          | Rt_config.Interrupt_kernel_module -> cm.Sim.Cost_model.interrupt_delivery_cost
          | Rt_config.Interrupt_ping_thread -> cm.Sim.Cost_model.signal_delivery_cost
          | Rt_config.Software_polling -> 0)
          + cm.Sim.Cost_model.rollforward_lookup_cost
        in
        Sim.Engine.advance t.eng c;
        Sim.Metrics.add_overhead t.metrics Sim.Metrics.Interrupt c;
        emit t worker Obs.Trace.Heartbeat_detected;
        true
      end
      else false
