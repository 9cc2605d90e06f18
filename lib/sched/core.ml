(* The backend-agnostic scheduler core: per-worker deques under the
   work-stealing discipline with the clone optimization, steal protocol
   with last-pusher affinity, joins, and the task lifecycle trace events.
   This code is the executor's historical scheduler verbatim, with each
   machine-shaped line routed through a BACKEND hook; the simulator
   instantiation is pinned byte-identical to the pre-functor executor by
   the golden fingerprint/makespan tests.

   Concurrency notes (the simulator is single-fibered, so these only
   matter natively): join pending counts, the live flag and the task-id
   counters are Atomics; [last_pusher] is a racy affinity hint (reads
   may be stale, which only costs a wasted probe). Deque-op + emission
   groups go through [B.critical] so a tracing concurrent backend can
   linearize them for the sanitizer's shadow replay. *)

module Make (B : Backend_intf.BACKEND) = struct
  type t = {
    b : B.t;
    depth : int array;  (* task-nesting depth per worker, drives the busy flag *)
    mutable last_pusher : int;  (* steal-affinity hint: deque that grew last *)
    live : int Atomic.t;  (* 1 until [set_finished]; scavengers idle until it reads 0 *)
    next_id : int Atomic.t;  (* trace-only task serial (captured runs) *)
  }

  type join = { pending : int Atomic.t; owner : int }

  let create b =
    {
      b;
      depth = Array.make (B.num_workers b) 0;
      last_pusher = 0;
      live = Atomic.make 1;
      next_id = Atomic.make 0;
    }

  let backend t = t.b

  let depth t = t.depth

  (* The driver counts as task depth, so tasks it runs inline (or while
     joining) never clear worker 0's busy flag when they finish. *)
  let root t f =
    t.depth.(0) <- 1;
    B.set_busy t.b ~worker:0 ~busy:true;
    f ();
    t.depth.(0) <- 0;
    B.set_busy t.b ~worker:0 ~busy:false

  let finished t = Atomic.get t.live = 0

  let set_finished t = Atomic.set t.live 0

  let next_task_id t = Atomic.get t.next_id

  let mk_task t run = { Task.id = Atomic.fetch_and_add t.next_id 1 + 1; run }

  let push_task t task =
    let w = B.worker_id t.b in
    B.critical t.b (fun () ->
        B.push t.b task;
        t.last_pusher <- w;
        B.emit t.b Obs.Trace.Task_spawned;
        if B.capture t.b then B.emit t.b (Obs.Trace.Task_pushed { task = task.Task.id }));
    B.charge_push t.b;
    B.wake_one t.b

  let run_task t task =
    let w = B.worker_id t.b in
    B.on_task_claim t.b;
    if B.capture t.b then
      B.critical t.b (fun () -> B.emit t.b (Obs.Trace.Task_exec { task = task.Task.id }));
    B.pre_task t.b;
    t.depth.(w) <- t.depth.(w) + 1;
    if t.depth.(w) = 1 then B.set_busy t.b ~worker:w ~busy:true;
    let t0 = B.now t.b in
    task.Task.run ();
    if B.capture t.b && t.depth.(w) = 1 && B.now t.b > t0 then
      B.critical t.b (fun () -> B.emit t.b (Obs.Trace.Interval { t0; kind = "task" }));
    t.depth.(w) <- t.depth.(w) - 1;
    if t.depth.(w) = 0 then B.set_busy t.b ~worker:w ~busy:false

  let try_steal t =
    let n = B.num_workers t.b in
    let w = B.worker_id t.b in
    let probe v =
      B.critical t.b (fun () -> B.emit t.b Obs.Trace.Steal_attempt);
      B.charge_steal_attempt t.b;
      if B.steal_vetoed t.b then None
      else begin
        let got = ref None in
        B.critical t.b (fun () ->
            match B.steal_from t.b ~victim:v with
            | Some task ->
                B.emit t.b Obs.Trace.Steal_success;
                if B.capture t.b then
                  B.emit t.b (Obs.Trace.Task_stolen { task = task.Task.id; victim = v });
                got := Some task
            | None -> ());
        match !got with
        | Some task ->
            B.charge_steal_success t.b;
            if B.keep_stolen t.b task then Some task else None
        | None -> None
      end
    in
    let rec attempt k =
      if k = 0 || n = 1 then None
      else begin
        let v = B.random_victim t.b in
        if v = w then attempt (k - 1)
        else match probe v with Some task -> Some task | None -> attempt (k - 1)
      end
    in
    (* Deques are usually empty under heartbeat scheduling; probing the deque
       that grew most recently first saves most of the random-walk probes. *)
    let lp = t.last_pusher in
    if n > 1 && lp <> w && not (B.deque_empty t.b ~worker:lp) then
      match probe lp with Some task -> Some task | None -> attempt 8
    else attempt 8

  let new_join t = { pending = Atomic.make 0; owner = B.worker_id t.b }

  let add_pending join = Atomic.incr join.pending

  let join_pending join = Atomic.get join.pending

  let finish_join t join =
    let left = Atomic.fetch_and_add join.pending (-1) - 1 in
    if B.worker_id t.b <> join.owner then begin
      B.critical t.b (fun () -> B.emit t.b Obs.Trace.Task_joined_slow);
      B.charge_join_slow t.b
    end;
    if left = 0 then B.unpark t.b ~worker:join.owner

  (* Owner-side pop with its trace event, atomically. [charge] matches the
     historical cost attribution: join waits pay the pop cost, scavenging
     workers do not. *)
  let pop_own t ~charge =
    let popped = ref None in
    B.critical t.b (fun () ->
        match B.pop t.b with
        | Some task ->
            if B.capture t.b then B.emit t.b (Obs.Trace.Task_popped { task = task.Task.id });
            popped := Some task
        | None -> ());
    match !popped with
    | Some task ->
        if charge then B.charge_pop t.b;
        Some task
    | None -> None

  let join_wait t join =
    while Atomic.get join.pending > 0 do
      match pop_own t ~charge:true with
      | Some task -> run_task t task
      | None -> (
          match try_steal t with
          | Some task -> run_task t task
          | None -> if Atomic.get join.pending > 0 then B.idle t.b ~until:join.pending)
    done

  let scavenge t =
    while not (finished t) do
      match pop_own t ~charge:false with
      | Some task -> run_task t task
      | None -> (
          match try_steal t with
          | Some task -> run_task t task
          | None -> if not (finished t) then B.idle t.b ~until:t.live)
    done
end
