(* Real OCaml 5 domains as a {!Sched.Backend_intf.BACKEND}: worker
   identity lives in domain-local storage, deques are the lock-free
   Chase–Lev {!Ws_deque}, victims come from a per-worker xorshift, and
   idling is bounded spinning then a parked wait on a condition variable.

   Tracing: an untraced backend has [critical] as a plain call and [emit]
   as a no-op — the scheduler runs fully lock-free. A traced backend
   takes one global mutex around every deque-op + emission group and
   stamps events with a logical tick drawn under that mutex, so the
   recorded stream is a linearization consistent with the real deque
   states: the sanitizer's shadow Chase–Lev replay and its clock-sanity
   invariant hold on native traces exactly as on simulated ones. Tracing
   serializes scheduling points only, never loop bodies.

   Chaos: an attached {!Sim.Fault_injector} lets the backend refuse
   steals and suppress wakeup signals from per-worker seeded decision
   streams, so a chaos run is reproducible from (plan seed, P). With no
   injector attached ([chaos] false) every hook short-circuits on one
   immutable bool — the lock-free fast path is untouched.

   Parking: an idle worker spins [spin_rounds], then parks on [park_cond]
   under [park_mu]. No other domain ever wakes a parked worker on a timer,
   so the protocol itself must lose no wakeup. A parker, holding
   [park_mu], first takes a banked ticket if there is one. Otherwise it
   announces itself ([Atomic.incr parked]) and re-checks readiness before
   [Condition.wait]: it is ready when its wait count (a join's pending
   count, or the core's live flag) reads 0 or some deque holds a task. A
   waker publishes first — a deque push, a pending decrement, the live
   flag's clear — and only then reads [parked]. Every one of these is an
   [Atomic], and OCaml atomics are sequentially consistent, so the
   waker's read of [parked] and the parker's increment are ordered. If
   the read comes after the increment, the waker sees the parker; it then
   takes [park_mu], which the parker holds until [Condition.wait]
   releases it, so its signal reaches the waiting parker or banks a
   ticket for one that already left. If the read comes first, the
   publication precedes the increment, and the parker's re-check sees the
   work and does not wait. Either way no wakeup is lost.

   A wakeup the chaos layer suppresses is owed, not lost: the next
   [wake_one] or [unpark], any worker entering [idle], and [stop] each
   re-issue it as a broadcast, with no new draw. The waker itself enters
   [idle] or calls [stop] eventually, so even a run that suppresses
   every wakeup finishes. *)

type t = {
  n : int;
  deques : Sched.Task.t Ws_deque.t array;
  trace : Obs.Trace.Sink.t;
  traced : bool;  (* enabled sink: linearize scheduling points *)
  capture : bool;
  mu : Mutex.t;
  tick : int Atomic.t;  (* logical trace clock; bumped per emission *)
  rng : int array;  (* per-worker xorshift state for victim selection *)
  spins : int array;  (* consecutive idle rounds, drives spin-then-park *)
  busy : bool array;  (* per-worker task-depth busy flag, sampled by watchdog rung 2 *)
  mutable injector : Sim.Fault_injector.t;
  mutable chaos : bool;  (* injector attached and active *)
  park_mu : Mutex.t;
  park_cond : Condition.t;
  mutable tickets : int;  (* banked wakeups, guarded by [park_mu] *)
  parked : int Atomic.t;  (* workers announced to park; read by every waker *)
  owed : bool Atomic.t;  (* a chaos-suppressed wakeup awaits re-issue *)
}

(* The worker index of the calling domain. Domains a pool did not
   register (never the case inside the scheduler) act as worker 0. *)
let index_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let register ~worker = Domain.DLS.set index_key worker

let create ~workers ~trace ~capture =
  let n = Stdlib.max 1 workers in
  {
    n;
    deques = Array.init n (fun _ -> Ws_deque.create ());
    trace;
    traced = Obs.Trace.Sink.enabled trace;
    capture;
    mu = Mutex.create ();
    tick = Atomic.make 0;
    rng = Array.init n (fun i -> (i * 0x9E3779B9) + 1);
    spins = Array.make n 0;
    busy = Array.make n false;
    injector = Sim.Fault_injector.inactive ~num_workers:n;
    chaos = false;
    park_mu = Mutex.create ();
    park_cond = Condition.create ();
    tickets = 0;
    parked = Atomic.make 0;
    owed = Atomic.make false;
  }

let set_injector b inj =
  b.injector <- inj;
  b.chaos <- Sim.Fault_injector.active inj

let injector b = b.injector

let num_workers b = b.n

let worker_id b =
  let i = Domain.DLS.get index_key in
  if i >= 0 && i < b.n then i else 0

let now b = Atomic.get b.tick

let capture b = b.capture

let critical b f =
  if b.traced then begin
    Mutex.lock b.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock b.mu) f
  end
  else f ()

(* Only called inside [critical], so the tick order equals the mutex
   linearization order: stamps are globally nondecreasing. *)
let emit b ev =
  if b.traced then begin
    let t = Atomic.fetch_and_add b.tick 1 + 1 in
    Obs.Trace.Sink.emit b.trace ~time:t ~worker:(worker_id b) ev
  end

let push b task = Ws_deque.push b.deques.(worker_id b) task

let pop b = Ws_deque.pop b.deques.(worker_id b)

let steal_from b ~victim = Ws_deque.steal b.deques.(victim)

let deque_empty b ~worker = Ws_deque.size b.deques.(worker) = 0

let random_victim b =
  let w = worker_id b in
  let s = b.rng.(w) in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = (s lxor (s lsl 17)) land max_int in
  b.rng.(w) <- s;
  s mod b.n

(* Called by the core OUTSIDE [critical] (core.ml's try_steal), so the
   injector is free to emit its Fault_injected event through a sink that
   takes the trace mutex itself. *)
let steal_vetoed b =
  b.chaos && Sim.Fault_injector.steal_fails b.injector ~worker:(worker_id b)

let keep_stolen _b _task = true

let pre_task _b = ()

let on_task_claim b = b.spins.(worker_id b) <- 0

(* --- parked-worker wakeup ----------------------------------------- *)

(* Bank a ticket and wake the parked workers. A join owner needs a
   broadcast: the condition variable is shared, and a targeted signal
   could wake the wrong sleeper while the owner keeps waiting. *)
let signal b ~all =
  Mutex.lock b.park_mu;
  if b.tickets < b.n then b.tickets <- b.tickets + 1;
  if all then Condition.broadcast b.park_cond else Condition.signal b.park_cond;
  Mutex.unlock b.park_mu

let wake_all b =
  Atomic.set b.owed false;
  Mutex.lock b.park_mu;
  b.tickets <- b.n;
  Condition.broadcast b.park_cond;
  Mutex.unlock b.park_mu

(* Re-issue a suppressed wakeup, without a new draw. *)
let pay_owed b = if Atomic.get b.owed && Atomic.exchange b.owed false then signal b ~all:true

(* The [parked = 0] fast path keeps the promotion path allocation-free
   and lock-free when nobody sleeps (the common heartbeat-scheduling
   case: deques are empty, workers spin). The chaos draw models a lost
   futex wake; the wakeup is owed until re-issued. *)
let wake b ~all =
  if b.chaos then pay_owed b;
  if Atomic.get b.parked > 0 then begin
    if b.chaos && Sim.Fault_injector.delay_wakeup b.injector ~worker:(worker_id b) then
      Atomic.set b.owed true
    else signal b ~all
  end

let wake_one b = wake b ~all:false

let unpark b ~worker:_ = wake b ~all:true

let spin_rounds = 64

let rec work_visible b w = w < b.n && (Ws_deque.size b.deques.(w) > 0 || work_visible b (w + 1))

let idle b ~until =
  if b.chaos then pay_owed b;
  let w = worker_id b in
  let s = b.spins.(w) in
  if s < spin_rounds then begin
    b.spins.(w) <- s + 1;
    Domain.cpu_relax ()
  end
  else if b.n = 1 then
    (* Single worker: nobody can wake it, so parking would strand it.
       (Unreachable in practice — a lone worker always finds its own
       tasks — but a sleep is the safe fallback.) *)
    Unix.sleepf 50e-6
  else begin
    Mutex.lock b.park_mu;
    if b.tickets > 0 then b.tickets <- b.tickets - 1
    else begin
      Atomic.incr b.parked;
      (* The re-check after the announcement: see the header comment. *)
      if Atomic.get until > 0 && not (work_visible b 0) then Condition.wait b.park_cond b.park_mu;
      Atomic.decr b.parked;
      if b.tickets > 0 then b.tickets <- b.tickets - 1
    end;
    Mutex.unlock b.park_mu;
    (* Spin again before re-parking: a fresh wakeup usually means work. *)
    b.spins.(w) <- 0
  end

(* --- pool lifecycle ------------------------------------------------ *)

let start b ~work =
  register ~worker:0;
  List.init (b.n - 1) (fun i ->
      Domain.spawn (fun () ->
          register ~worker:(i + 1);
          work ()))

(* The caller cleared the core's live flag before calling, so a worker
   that parks after this broadcast sees the flag in its re-check and does
   not wait. *)
let stop b domains =
  wake_all b;
  List.iter Domain.join domains

let set_busy b ~worker ~busy = b.busy.(worker) <- busy

let is_busy b ~worker = b.busy.(worker)

let charge_push _b = ()

let charge_pop _b = ()

let charge_steal_attempt _b = ()

let charge_steal_success _b = ()

let charge_join_slow _b = ()
