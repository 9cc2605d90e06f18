exception Deadlock of string

exception Budget_exceeded of { budget : int; time : int }

exception Guard_stop of string

(* One compilation unit holds the whole per-event path: the event heap
   ([Event_queue] below), the dispatch step, the effect handlers, the
   run-ahead test in [advance] and the shared memory bus. Dune's dev
   profile compiles every module with [-opaque], so a call into another
   module is never inlined and is made through the callee's closure; here
   the handlers and [advance] read the heap's arrays in place, and
   [charge] serves a batch's bytes and advances the worker in one call.

   Events live in the binary heap (Event_queue) as unboxed ints: an
   event is (time, seq, code), where the code identifies the payload in
   an engine-side table. Codes [0, nworkers) are worker resumes — a
   worker has at most one outstanding continuation (it is either
   running, parked, or waiting on exactly one queued resume), so the
   continuation lives in a per-worker slot and pushing a resume writes
   two flat ints plus one slot store. Codes >= nworkers are timed
   callbacks; the closure lives in a free-listed slot table. Once the
   heap's arrays have grown, neither path allocates on push or pop, so
   steady-state scheduling costs no minor words beyond closures the
   caller already made.

   A worker yields by bumping its clock and performing the constant
   [Yield] effect; its handler is a [Some] closure built once per
   worker, so a yield allocates only the continuation the runtime
   makes for [perform].

   Dispatch. There is no loop that workers return to. One [dispatch]
   step pops the earliest event and fires it: a callback runs and the
   next step follows, a resume is continued as the step's last call.
   The [Yield] and [Park] handlers and [retc] end in a step too, so
   the handler of a yielding worker resumes the next worker itself.
   The handlers of a deep effect run on the stack that resumed the
   fiber, at the depth of that [continue]; with every resume a tail
   call, the handler that runs next sits where the last one did, and
   the main stack stays as deep as the worker start-up left it (a few
   frames per worker started), whatever the number of events.
   A resume that is not a tail call would leave a frame per event and
   overflow the stack on long runs.

   Handoff. A yield pushes the worker's resume and pops the top. When
   the worker's new clock is not below the top's time, the resume
   sorts after the top (at an equal time it has the larger seq), so
   the pop takes the old top either way. The handler then swaps the
   resume in with [Event_queue.replace_top], one sift-down, and fires
   the old top. Seqs, pop order, [events_processed] and the watchdog
   countdown are those of a push and a pop.

   Stops. A step stops when no worker is live; it returns, and the
   handlers and callbacks below it return in turn, down to [run].
   Deadlock, budget and guard stops, and exceptions from callbacks or
   worker bodies, are raised on the main stack by a step or a handler,
   never inside a worker fiber, so they leave [run] unchanged and no
   worker's own handler sees them. A caller that wants to stop a run at
   a cycle queues a callback there that raises; queued before any other
   event, it fires after every event earlier than its cycle and before
   any event at or past it.

   Run-ahead. [advance] skips the yield altogether when the worker's
   new clock is strictly below the queue's top time and no budget or
   guard boundary falls on this dispatch. The yield would push a
   resume at that clock, and with a time strictly below every queued
   one it would be the very next event popped, resuming the same
   worker; nothing runs in between. So run-ahead does in place
   exactly what that pop does: it stamps the seq the push would have
   taken, counts the dispatch, steps the guard countdown and moves the
   engine time. Every later (time, seq) stamp, [events_processed] and
   virtual time are what the yield path gives. Equal times must yield,
   because a queued event at that time carries an earlier seq and
   pops first. So must a dispatch that a boundary acts on: a budget
   below the new clock aborts on the pop, and a guard countdown that
   reaches zero polls the hook. Those take the yield path, so a stop is
   raised on the main stack and never inside the worker. A queued
   callback bounds run-ahead as any event does: no worker runs ahead
   to or past its time.

   Memory bus. The machine's DRAM bandwidth is one shared resource
   serving [bus_bytes_per_cycle]. [charge] books a batch's bytes on it
   from the worker's clock, in the order batches are charged (virtual
   time order, as the engine runs workers), and advances the worker by
   its compute overlapped with that service time, so time past the
   compute is a bandwidth stall. One core alone never saturates the bus
   (the sequential baselines are compute-priced), matching how the
   paper's baselines already include single-thread memory time. The
   bus's state lives in a float-only record ([bus]), whose fields are
   stored unboxed, so a booking writes its new free time in place and
   allocates nothing; [advance] is inlined into [charge].

   Exactness. The heap's child pick ([Event_queue.earlier_child]) adds
   the outcome of the time and tag comparisons to the left child's
   index instead of branching on them; it makes the same comparisons,
   and (time, seq) is a total order, so the pop sequence is the same
   whatever the heap's shape. The booking computes the stall with the
   formula's own division and sums; the max of the free time and the
   clock is a plain comparison (neither is NaN, both are >= +0.0), and
   the ceil of the non-negative stall is its truncation plus one when a
   fraction is left, so every float and every charged cycle count is
   bit-identical to [Float.max] and [Float.ceil]. *)

module Event_queue = struct
  (* Binary min-heap over (time, seq) for the virtual-time engine.

     A queued event is two unboxed ints held in two parallel arrays: its
     time, and a tag that packs seq above a [code_bits]-bit payload code,
     [tag = seq lsl code_bits lor code]. Seqs are unique, so comparing
     tags compares seqs, and a heap level compares and moves two words.
     Unique seqs also make (time, seq) a total order: the pop sequence
     does not depend on the heap's shape. A push or pop touches no boxed
     value and, once the arrays have grown to the run's peak population,
     allocates nothing. The engine keeps at most one resume per worker
     plus its pending timers and callbacks here, so the heap stays small
     and O(log n) sifts are cheap. A yielding worker's handoff pushes its
     resume and pops the top in one sift-down ([replace_top]).

     Codes must be below 2^20 (the engine's codes are its worker count
     plus its live callback slots), and seqs below 2^42, so a tag stays a
     non-negative 63-bit int; [push] asserts both. *)

  type t = {
    mutable time : int array;
    mutable tag : int array;
    mutable size : int;
  }

  let code_bits = 20

  let code_mask = (1 lsl code_bits) - 1

  let max_seq = 1 lsl (Sys.int_size - 1 - code_bits)

  let initial_capacity = 64

  let create () =
    { time = Array.make initial_capacity 0; tag = Array.make initial_capacity 0; size = 0 }

  let[@inline] is_empty q = q.size = 0

  let[@inline] length q = q.size

  let grow q =
    let cap = 2 * Array.length q.time in
    let extend a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 q.size;
      b
    in
    q.time <- extend q.time;
    q.tag <- extend q.tag

  (* Sift an event up from the hole at [i]: parents later than it shift
     down into the hole, and the event is written once where the hole
     stops. *)
  let place q i ~time ~tag =
    let times = q.time and tags = q.tag in
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let tp = times.(p) in
      if time < tp || (time = tp && tag < tags.(p)) then begin
        times.(!i) <- tp;
        tags.(!i) <- tags.(p);
        i := p
      end
      else continue := false
    done;
    times.(!i) <- time;
    tags.(!i) <- tag

  let push q ~time ~seq ~code =
    assert (code >= 0 && code <= code_mask);
    assert (seq >= 0 && seq < max_seq);
    if q.size = Array.length q.time then grow q;
    place q q.size ~time ~tag:((seq lsl code_bits) lor code);
    q.size <- q.size + 1

  let[@inline] top_time q = q.time.(0)

  let[@inline] top_seq q = q.tag.(0) lsr code_bits

  let[@inline] top_code q = q.tag.(0) land code_mask

  (* The earlier of the children of the hole at [i] among the first [n]
     slots, picked without a branch: on time, then on tag when the times
     are equal. A lone left child is compared with itself, which is not
     earlier, so the pick stays on it. *)
  let[@inline] earlier_child (times : int array) (tags : int array) n i =
    let l = (2 * i) + 1 in
    let r = l + Bool.to_int (l + 1 < n) in
    let tl = times.(l) and tr = times.(r) in
    l + (Bool.to_int (tr < tl) lor (Bool.to_int (tr = tl) land Bool.to_int (tags.(r) < tags.(l))))

  (* Floyd's deletion: the root's hole walks down along the earlier child
     to a leaf, then the last event is placed from there. The last event
     is usually among the latest, so it rarely climbs, and the walk costs
     one comparison per level instead of two. *)
  let drop q =
    let n = q.size - 1 in
    q.size <- n;
    if n > 0 then begin
      let times = q.time and tags = q.tag in
      let i = ref 0 in
      while (2 * !i) + 1 < n do
        let c = earlier_child times tags n !i in
        times.(!i) <- times.(c);
        tags.(!i) <- tags.(c);
        i := c
      done;
      place q !i ~time:times.(n) ~tag:tags.(n)
    end

  (* Drop the top and push (time, seq, code) in one pass: the new event
     takes the root's hole and sifts down, stopping at the first level
     whose earlier child is not before it. When the new event is not
     earlier than the top, this is also push followed by [drop], at half
     the sifting. *)
  let replace_top q ~time ~seq ~code =
    assert (code >= 0 && code <= code_mask);
    assert (seq >= 0 && seq < max_seq);
    let tag = (seq lsl code_bits) lor code in
    let n = q.size in
    let times = q.time and tags = q.tag in
    let i = ref 0 in
    let continue = ref true in
    while !continue && (2 * !i) + 1 < n do
      let c = earlier_child times tags n !i in
      let tc = times.(c) in
      if tc < time || (tc = time && tags.(c) < tag) then begin
        times.(!i) <- tc;
        tags.(!i) <- tags.(c);
        i := c
      end
      else continue := false
    done;
    times.(!i) <- time;
    tags.(!i) <- tag
end

(* A continuation slot's empty state. Never resumed: slots are read only
   for codes the queue handed back, and each push fills the slot first.
   An immediate is a valid member of any boxed array, so this is safe
   for the GC; it is just never a valid continuation. *)
let dummy_k : (unit, unit) Effect.Deep.continuation = Obj.magic 0

let dummy_cb : unit -> unit = ignore

type t = {
  nworkers : int;
  clocks : int array;
  parked : (unit, unit) Effect.Deep.continuation option array;
  finished : bool array;
  q : Event_queue.t;
  resume_ks : (unit, unit) Effect.Deep.continuation array;  (* valid iff a resume is queued *)
  mutable cbs : (unit -> unit) array;  (* callback slots, indexed by code - nworkers *)
  mutable cb_hwm : int;  (* callback slots ever allocated *)
  mutable cb_free : int array;  (* freelist stack of callback slots *)
  mutable cb_free_len : int;
  mutable seq : int;
  mutable dispatched : int;
  mutable live : int;
  mutable current : int;  (* worker id, or -1 in engine/callback context *)
  mutable engine_time : int;
  mutable pending_resumes : int;
  mutable starved : int;  (* dispatches in a row with no resume queued *)
  rng : Sim_rng.t;
  mutable diagnostics : (int -> string) option;
  mutable budget : int option;  (* virtual-cycle watchdog: abort past this time *)
  mutable guard : (unit -> string option) option;
  mutable guard_every : int;
  mutable guard_countdown : int;
  bus : bus;
}

(* Floats only, so both fields are stored unboxed and a booking writes
   [free_at] in place. *)
and bus = {
  bytes_per_cycle : float;
  mutable free_at : float;  (* when the bus finishes its booked traffic *)
}

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Park : unit Effect.t

let create ?(seed = 42) ?(bus_bytes_per_cycle = Cost_model.default.Cost_model.dram_bytes_per_cycle)
    ~num_workers () =
  assert (bus_bytes_per_cycle > 0.0);
  {
    nworkers = num_workers;
    clocks = Array.make num_workers 0;
    parked = Array.make num_workers None;
    finished = Array.make num_workers false;
    q = Event_queue.create ();
    resume_ks = Array.make num_workers dummy_k;
    cbs = Array.make 16 dummy_cb;
    cb_hwm = 0;
    cb_free = Array.make 16 0;
    cb_free_len = 0;
    seq = 0;
    dispatched = 0;
    live = 0;
    current = -1;
    engine_time = 0;
    pending_resumes = 0;
    starved = 0;
    rng = Sim_rng.create seed;
    diagnostics = None;
    budget = None;
    guard = None;
    guard_every = 4096;
    guard_countdown = 4096;
    bus = { bytes_per_cycle = bus_bytes_per_cycle; free_at = 0.0 };
  }

let set_diagnostics t f = t.diagnostics <- Some f

let set_budget t budget = t.budget <- Some budget

let set_guard t ?(every = 4096) f =
  t.guard <- Some f;
  t.guard_every <- Int.max 1 every;
  t.guard_countdown <- t.guard_every

(* Watchdog checks on every event dispatch. The budget check fires as soon as
   virtual time passes the cap — even when the run is livelocked on events
   that keep rescheduling themselves — and the guard hook lets a caller
   abort on external conditions (wall-clock deadlines) without the engine
   depending on the clock itself. *)
let[@inline] check_watchdogs t time =
  t.dispatched <- t.dispatched + 1;
  (match t.budget with
  | Some b when time > b -> raise (Budget_exceeded { budget = b; time })
  | Some _ | None -> ());
  match t.guard with
  | None -> ()
  | Some f ->
      t.guard_countdown <- t.guard_countdown - 1;
      if t.guard_countdown <= 0 then begin
        t.guard_countdown <- t.guard_every;
        match f () with Some reason -> raise (Guard_stop reason) | None -> ()
      end

(* Deadlock reports carry a per-worker snapshot (clock, park/finish state,
   plus whatever the runtime's diagnostics hook adds — deque depth, task
   nesting) so a hung run is diagnosable from the exception alone. *)
let deadlock t reason =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%s (engine time %d)" reason t.engine_time;
  for w = 0 to t.nworkers - 1 do
    let state =
      if t.finished.(w) then "finished"
      else if Option.is_some t.parked.(w) then "parked"
      else "runnable"
    in
    let extra = match t.diagnostics with Some f -> f w | None -> "" in
    Printf.bprintf buf "\n  worker %d: clock=%d %s%s" w t.clocks.(w) state extra
  done;
  raise (Deadlock (Buffer.contents buf))

let num_workers t = t.nworkers
let rng t = t.rng
let worker_id t = t.current

let[@inline] now t = if t.current >= 0 then t.clocks.(t.current) else t.engine_time

let clock_of t w = t.clocks.(w)

(* Park [k] in worker [w]'s resume slot and stamp the seq its queue
   entry takes. *)
let[@inline] stash_resume t w k =
  t.resume_ks.(w) <- k;
  t.pending_resumes <- t.pending_resumes + 1;
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

let push_resume t ~time w k = Event_queue.push t.q ~time ~seq:(stash_resume t w k) ~code:w

let cb_slot t =
  if t.cb_free_len > 0 then begin
    t.cb_free_len <- t.cb_free_len - 1;
    t.cb_free.(t.cb_free_len)
  end
  else begin
    if t.cb_hwm = Array.length t.cbs then begin
      let cap = 2 * t.cb_hwm in
      let cbs = Array.make cap dummy_cb in
      Array.blit t.cbs 0 cbs 0 t.cb_hwm;
      t.cbs <- cbs;
      let free = Array.make cap 0 in
      Array.blit t.cb_free 0 free 0 t.cb_free_len;
      t.cb_free <- free
    end;
    let slot = t.cb_hwm in
    t.cb_hwm <- slot + 1;
    slot
  end

let push_callback t ~time f =
  let slot = cb_slot t in
  t.cbs.(slot) <- f;
  Event_queue.push t.q ~time ~seq:t.seq ~code:(t.nworkers + slot);
  t.seq <- t.seq + 1

(* Take a popped callback out of its slot and free the slot. *)
let take_callback t code =
  let slot = code - t.nworkers in
  let f = t.cbs.(slot) in
  t.cbs.(slot) <- dummy_cb (* don't retain fired closures *);
  t.cb_free.(t.cb_free_len) <- slot;
  t.cb_free_len <- t.cb_free_len + 1;
  f

let[@inline] take_resume t w =
  let k = t.resume_ks.(w) in
  t.resume_ks.(w) <- dummy_k (* don't retain resumed continuations *);
  k

(* The boundaries a dispatch step would check when popping a resume at
   [time] that is already known to be the queue's earliest event. *)
let[@inline] no_boundary_at t time =
  (match t.budget with None -> true | Some b -> time <= b)
  && match t.guard with None -> true | Some _ -> t.guard_countdown > 1

let[@inline] advance t c =
  let w = t.current in
  assert (w >= 0);
  assert (c >= 0);
  let time = t.clocks.(w) + c in
  t.clocks.(w) <- time;
  if (Event_queue.is_empty t.q || time < Event_queue.top_time t.q) && no_boundary_at t time
  then begin
    t.seq <- t.seq + 1;
    check_watchdogs t time (* counts the dispatch; [no_boundary_at] ruled out a stop *);
    t.engine_time <- time
  end
  else Effect.perform Yield

(* [Float.max] and [Float.ceil] without their calls; see Exactness in
   the header. *)
let charge t ~compute ~bytes =
  let total =
    if bytes <= 0 then compute
    else begin
      let bus = t.bus in
      let now = Float.of_int (now t) and free = bus.free_at in
      let mem_cycles = Float.of_int bytes /. bus.bytes_per_cycle in
      let finish_mem = (if free > now then free else now) +. mem_cycles in
      bus.free_at <- finish_mem;
      let d = finish_mem -. now in
      let i = int_of_float d in
      Int.max compute (i + Bool.to_int (Float.of_int i < d))
    end
  in
  if total > 0 then advance t total;
  total

let park t =
  assert (t.current >= 0);
  Effect.perform Park

let is_parked t w = Option.is_some t.parked.(w)

let unpark t w =
  match t.parked.(w) with
  | None -> ()
  | Some k ->
      t.parked.(w) <- None;
      t.clocks.(w) <- Int.max t.clocks.(w) (now t);
      push_resume t ~time:t.clocks.(w) w k

let unpark_all t =
  for w = 0 to t.nworkers - 1 do
    unpark t w
  done

let schedule_at t ~time f = push_callback t ~time f

(* One [tick] closure is allocated per timer, not per firing: rearming
   pushes the same closure again with a bumped [next], so a recurring
   timer costs only its free-listed slot on the hot path. *)
let every t ~start ~interval f =
  let alive = ref true in
  let next = ref start in
  let rec tick () =
    if !alive then begin
      f ();
      next := !next + interval;
      schedule_at t ~time:!next tick
    end
  in
  schedule_at t ~time:start tick;
  fun () -> alive := false

(* Fire the event (time, code) just taken off the queue. A resume is
   continued as the last call, so the caller's frame is gone before the
   worker runs; a callback runs to completion and the next step
   follows. *)
let rec fire t time code =
  check_watchdogs t time;
  if code < t.nworkers then begin
    let k = take_resume t code in
    t.pending_resumes <- t.pending_resumes - 1;
    t.current <- code;
    t.engine_time <- time;
    Effect.Deep.continue k ()
  end
  else begin
    let f = take_callback t code in
    t.current <- -1;
    t.engine_time <- time;
    f ();
    dispatch t
  end

(* One dispatch step: stop, or pop the earliest event and fire it. *)
and dispatch t =
  if t.live = 0 then t.current <- -1
  else begin
    if t.pending_resumes = 0 then begin
      (* Only callbacks remain. If every live worker is parked, no callback
         body can produce progress by itself unless it unparks someone, so
         run callbacks until one does or the queue drains. *)
      t.starved <- t.starved + 1;
      if t.starved > 100_000 then
        deadlock t "workers parked; callbacks firing without waking anyone";
      if Event_queue.is_empty t.q then deadlock t "live workers parked and event queue empty"
    end
    else begin
      t.starved <- 0;
      if Event_queue.is_empty t.q then deadlock t "pending resumes not in queue"
    end;
    let time = Event_queue.top_time t.q in
    let code = Event_queue.top_code t.q in
    Event_queue.drop t.q;
    fire t time code
  end

let start_worker t w main =
  t.current <- w;
  let yield_h =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        let time = t.clocks.(w) in
        if (not (Event_queue.is_empty t.q)) && time >= Event_queue.top_time t.q then begin
          (* Handoff: the resume sorts after the top, so the top is the
             next event either way. *)
          let top = Event_queue.top_time t.q and code = Event_queue.top_code t.q in
          Event_queue.replace_top t.q ~time ~seq:(stash_resume t w k) ~code:w;
          t.starved <- 0;
          fire t top code
        end
        else begin
          push_resume t ~time w k;
          dispatch t
        end)
  in
  let park_h =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        t.parked.(w) <- Some k;
        dispatch t)
  in
  Effect.Deep.match_with
    (fun () -> main w)
    ()
    {
      retc =
        (fun () ->
          t.finished.(w) <- true;
          t.live <- t.live - 1;
          dispatch t);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Yield -> yield_h | Park -> park_h | _ -> None);
    }

let run t main =
  t.live <- t.nworkers;
  for w = 0 to t.nworkers - 1 do
    push_callback t ~time:0 (fun () -> start_worker t w main)
  done;
  dispatch t

let max_time t = Array.fold_left Int.max 0 t.clocks

let events_processed t = t.dispatched
