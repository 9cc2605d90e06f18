(* The compiled-nest interpreter, written once for every scheduler backend:
   loop-slice execution, leaf chunking and polling, the promotion handler
   (outer-loop-first split, task creation, clone-optimized join), leftover
   tasks and adaptive chunking — the runtime of Sec. 5. The deque/steal/
   join discipline is [Sched.Core.Make (H.B)]; what genuinely differs per
   backend (trace emission, cost charging, the beat check, where a
   reduction combines) is reached through the [HOOKS] a driver supplies. *)

exception Internal_error of string

type seeded_bug = Duplicate_leftover | Lose_stolen_task | Promote_innermost

let seeded_bug : seeded_bug option ref = ref None

let set_seeded_bug b = seeded_bug := b

type status = Done | Promoted of int

type seg_result = Seg_ok | Seg_promoted of int

(* [forbidden]: ordinal of the lowest loop in the enclosing context this
   task does NOT own (its frozen ancestors' iterations belong to the task
   that spawned it); promotions must never split it or anything above it.
   -1 when the task owns its whole chain (the root task). [work]/[bytes]
   accumulate the body cost of one serial region (a leaf batch or a
   non-DOALL subtree) between two charges; regions never interleave within
   a task, so one pair per task suffices and the hot path allocates no
   accumulator. [worker] is the worker executing the task, read once when
   the task starts: a task runs to completion on the worker that started
   it, so slice entries, polls and charges never look it up again. *)
type task_state = {
  residual : int array;
  mutable no_promote : bool;
  mutable forbidden : int;
  mutable work : int;
  mutable bytes : int;
  worker : int;
}

(* Live-slice registry for checkpoint capture, armed only when the request
   pauses or resumes. One LIFO stack per worker holds the DOALL slice
   activations currently on that worker; the checkpoint reads each
   context's remaining range in place at the pause boundary. When armed it
   costs two list writes per slice activation and nothing per iteration;
   unarmed runs skip it entirely. *)
type live_slice = { ck_key : int; ck_nest : string; ck_ctx : Ir.Ctx.t }

module type HOOKS = sig
  module B : Sched.Backend_intf.BACKEND

  type t

  val backend : t -> B.t

  val emit : t -> Obs.Trace.event -> unit

  val poll : t -> worker:int -> count_poll:bool -> bool

  val add_work : t -> worker:int -> int -> unit

  val charge_slice_entry : t -> unit

  val charge_lst_store : t -> unit

  val charge_serial : t -> worker:int -> work:int -> bytes:int -> unit

  val charge_batch : t -> worker:int -> work:int -> bytes:int -> chunked:bool -> polled:bool -> unit

  val charge_latch : t -> bytes:int -> unit

  val charge_promotion : t -> unit

  val charge_reduction : t -> int -> unit

  val combine_in_task : bool
end

(* On resume the request's sink is muted until the replay passes the pause
   boundary: the observer already saw every earlier event during the
   original episodes, so the per-episode streams tile the uninterrupted
   stream exactly once. Counters are NOT gated — the replay re-derives them
   from zero, which is what makes the final metrics byte-identical to an
   uninterrupted run. *)
let gated_observer (request : Run_request.t) =
  let resuming = Option.is_some request.Run_request.resume_from in
  let gate = ref (not resuming) in
  let observer =
    if resuming && Obs.Trace.Sink.enabled request.Run_request.trace then
      Obs.Trace.Sink.fn (fun ~time ~worker ev ->
          if !gate then Obs.Trace.Sink.emit request.Run_request.trace ~time ~worker ev)
    else request.Run_request.trace
  in
  (gate, observer)

(* The machine-specific fields of a checkpoint, read by the driver at the
   pause boundary. *)
type machine = { rng_state : int64; work_cycles : int; clocks : int array; deques : int list array }

let reduction_cost (spec : Ir.Locals.spec) =
  8 + (2 * (spec.Ir.Locals.nfloats + spec.Ir.Locals.nints))

module Make (H : HOOKS) = struct
  module S = Sched.Core.Make (H.B)

  type t = {
    h : H.t;
    cfg : Rt_config.t;
    sc : S.t;
    capture : bool;
    mutable ac : Sched.Adaptive_chunking.t array array array;
        (* [nest_id].(worker).(ord), filled when the nest first executes and
           kept across its re-executions; a worker touches only its own row *)
    live_slices : live_slice list array option;
    promotions : int Atomic.t;
    promo_left : int Atomic.t;
        (* remaining metered promotions (max_int = unmetered); at 0 the run
           degrades gracefully: no more splits, remaining work runs serially *)
    promo_disabled : bool Atomic.t;  (* a watchdog vetoed further splits *)
    bug : seeded_bug option;
    bug_fired : bool Atomic.t;  (* one-shot seeded bugs fire once per run *)
    mutable exec_epoch : int;  (* bumped per exec_nest call, part of slice keys *)
  }

  type 'e nest_handle = {
    st : t;
    nest : 'e Compiled.nest;
    nest_id : int;
    env : 'e;
    ac : Sched.Adaptive_chunking.t array array;  (* [worker].(ord): [st.ac.(nest_id)] *)
  }

  let create h cfg (request : Run_request.t) =
    let b = H.backend h in
    let n = H.B.num_workers b in
    let pausing =
      Option.is_some request.Run_request.pause_at
      || Option.is_some request.Run_request.resume_from
    in
    let grant =
      match request.Run_request.resume_from with
      | Some ck -> (
          (* The replay restarts from zero under the first episode's grant;
             this episode's own grant applies at the boundary. *)
          match ck.Sim.Checkpoint_state.granted with
          | Some g -> Stdlib.max 0 g
          | None -> Stdlib.max_int)
      | None -> (
          match request.Run_request.promotion_budget with
          | Some g -> Stdlib.max 0 g
          | None -> Stdlib.max_int)
    in
    {
      h;
      cfg;
      sc = S.create b;
      capture = H.B.capture b;
      ac = [||];
      live_slices = (if pausing then Some (Array.make n []) else None);
      promotions = Atomic.make 0;
      promo_left = Atomic.make grant;
      promo_disabled = Atomic.make false;
      bug = !seeded_bug;
      bug_fired = Atomic.make false;
      exec_epoch = 0;
    }

  let core t = t.sc

  let promotions t = Atomic.get t.promotions

  let set_promo_left t n = Atomic.set t.promo_left n

  let disable_promotions t = not (Atomic.exchange t.promo_disabled true)

  let wid t = H.B.worker_id (H.backend t.h)

  (* Spend one metered promotion, failing when racing workers drained the
     meter first; unmetered runs never touch the counter. *)
  let spend_promotion t =
    Atomic.get t.promo_left = Stdlib.max_int
    ||
    let rec go () =
      let v = Atomic.get t.promo_left in
      v > 0 && (Atomic.compare_and_set t.promo_left v (v - 1) || go ())
    in
    go ()

  (* The promotion gate shared by leaf beats and general-loop latches. *)
  let may_promote t (ts : task_state) =
    t.cfg.Rt_config.promotion && (not ts.no_promote)
    && Atomic.get t.promo_left > 0
    && not (Atomic.get t.promo_disabled)

  (* Called on the worker that runs the task, when the task starts. *)
  let fresh_task_state c =
    {
      residual = Array.make (Ir.Nesting_tree.size c.nest.Compiled.tree) 0;
      no_promote = false;
      forbidden = -1;
      work = 0;
      bytes = 0;
      worker = wid c.st;
    }

  (* A nest's adaptive-chunking slots, one per (worker, ordinal), created
     the first time the nest executes. Nests execute one at a time from the
     driver, so growing the table needs no lock. *)
  let ac_slots (t : t) ~nest_id (cn : _ Compiled.nest) =
    let known = Array.length t.ac in
    if nest_id >= known then
      t.ac <- Array.init (nest_id + 1) (fun i -> if i < known then t.ac.(i) else [||]);
    if Array.length t.ac.(nest_id) = 0 then
      t.ac.(nest_id) <-
        Array.init (H.B.num_workers (H.backend t.h)) (fun _ ->
            Array.init (Array.length cn.Compiled.infos) (fun _ ->
                Sched.Adaptive_chunking.create ~target_polls:t.cfg.Rt_config.ac_target_polls
                  ~window:t.cfg.Rt_config.ac_window ()));
    t.ac.(nest_id)

  (* Sequential execution for non-DOALL (pruned) loops and leaf iterations:
     pure work and memory traffic, accumulated into [ts] and charged by the
     caller once per region. *)
  let rec serial_loop c ts (ctxs : Ir.Ctx.set) (l : _ Ir.Nest.loop) =
    let ctx = ctxs.(l.Ir.Nest.ordinal) in
    let lo, hi = l.Ir.Nest.bounds c.env ctxs in
    Ir.Ctx.set_slice ctx ~lo ~hi;
    (match l.Ir.Nest.init with Some f -> f c.env ctx.Ir.Ctx.locals | None -> ());
    ts.bytes <- ts.bytes + ((hi - lo) * l.Ir.Nest.bytes_per_iter);
    serial_iters c ts ctxs ctx l.Ir.Nest.body

  and serial_iters c ts ctxs (ctx : Ir.Ctx.t) body =
    while ctx.Ir.Ctx.lo < ctx.Ir.Ctx.hi do
      exec_segs c ts ctxs ctx.Ir.Ctx.lo body;
      ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
    done

  and exec_segs c ts ctxs iter = function
    | [] -> ()
    | Ir.Nest.Stmt s :: rest ->
        ts.work <- ts.work + s.Ir.Nest.exec c.env ctxs iter;
        exec_segs c ts ctxs iter rest
    | Ir.Nest.Nested child :: rest ->
        serial_loop c ts ctxs child;
        exec_segs c ts ctxs iter rest

  (* Sanitizer bookkeeping: a loop-slice *invocation* is identified by the
     iteration vector of its ancestors (each ancestor's current iteration)
     plus the nest id, the loop ordinal, and an execution epoch bumped per
     [exec_nest] call (drivers may run the same nest repeatedly with
     identical bounds). Spawned slice halves and leftover tasks operate on
     copied context sets that preserve the ancestors' iterations, so every
     continuation of an invocation hashes to the same key and the sanitizer
     can check that its [Iter_exec] intervals tile the [Slice_enter] range
     exactly once. Computed only on captured runs. *)
  let slice_key c (ctxs : Ir.Ctx.set) ord =
    let h = ref (((c.nest_id + 1) * 8191) + c.st.exec_epoch) in
    List.iter
      (fun o -> if o <> ord then h := (!h * 1000003) + ctxs.(o).Ir.Ctx.lo + 1)
      c.nest.Compiled.infos.(ord).Compiled.chain_from_root;
    ((!h * 1000003) + ord) land max_int

  let emit_slice_enter c ctxs ord =
    if c.st.capture then begin
      let ctx = ctxs.(ord) in
      H.emit c.st.h
        (Obs.Trace.Slice_enter
           { nest = c.nest_id; ord; key = slice_key c ctxs ord; lo = ctx.Ir.Ctx.lo; hi = ctx.Ir.Ctx.hi })
    end

  let emit_iter_exec c ctxs ord ~lo ~hi =
    if c.st.capture && hi > lo then
      H.emit c.st.h (Obs.Trace.Iter_exec { nest = c.nest_id; ord; key = slice_key c ctxs ord; lo; hi })

  let rec run_slice : 'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> int -> status =
   fun c ts ctxs ord ->
    match c.st.live_slices with
    | Some live when c.nest.Compiled.infos.(ord).Compiled.doall ->
        (* Slices never migrate workers mid-run (a task executes on the
           worker that started it), so registration and removal hit the
           same stack. A checkpoint reads the registered activations of
           the workers suspended at its boundary. *)
        let w = ts.worker in
        live.(w) <-
          {
            ck_key = slice_key c ctxs ord;
            ck_nest = Printf.sprintf "%s#%d" c.nest.Compiled.source_name ord;
            ck_ctx = ctxs.(ord);
          }
          :: live.(w);
        let r = run_slice_body c ts ctxs ord in
        (match live.(w) with _ :: rest -> live.(w) <- rest | [] -> ());
        r
    | _ -> run_slice_body c ts ctxs ord

  and run_slice_body : 'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> int -> status =
   fun c ts ctxs ord ->
    let info = c.nest.Compiled.infos.(ord) in
    H.charge_slice_entry c.st.h;
    if not info.Compiled.doall then begin
      (* Bounds were set by the caller; run the subtree serially. *)
      let ctx = ctxs.(ord) in
      let l = info.Compiled.loop in
      ts.work <- 0;
      ts.bytes <- (ctx.Ir.Ctx.hi - ctx.Ir.Ctx.lo) * l.Ir.Nest.bytes_per_iter;
      serial_iters c ts ctxs ctx l.Ir.Nest.body;
      H.charge_serial c.st.h ~worker:ts.worker ~work:ts.work ~bytes:ts.bytes;
      Done
    end
    else if info.Compiled.is_leaf then run_leaf c ts ctxs info
    else run_general c ts ctxs info

  (* A leaf runs in batches of [chunk] iterations with one poll per full
     batch; [No_chunking] is the chunk-size-1 case (a promotion point at
     every iteration, Fig. 8's "No chunking"), charged without the chunking
     bookkeeping. *)
  and run_leaf : 'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status
      =
   fun c ts ctxs info ->
    if not c.st.cfg.Rt_config.chunk_transferring then ts.residual.(info.Compiled.ordinal) <- 0;
    leaf_batches c ts ctxs info c.ac.(ts.worker).(info.Compiled.ordinal)

  (* One batch, then a tail call for the next: the loop carries no state
     beyond the context and [ts], so a batch allocates nothing. [ac] is
     read only by [Adaptive] leaves. *)
  and leaf_batches :
      'e.
      'e nest_handle ->
      task_state ->
      Ir.Ctx.set ->
      'e Compiled.loop_info ->
      Sched.Adaptive_chunking.t ->
      status =
   fun c ts ctxs info ac ->
    let t = c.st in
    let ord = info.Compiled.ordinal in
    let ctx = ctxs.(ord) in
    if ctx.Ir.Ctx.lo >= ctx.Ir.Ctx.hi then Done
    else begin
      if ts.residual.(ord) <= 0 then
        ts.residual.(ord) <-
          (match info.Compiled.chunk with
          | Compiled.No_chunking -> 1
          | Compiled.Static s -> s
          | Compiled.Adaptive -> Sched.Adaptive_chunking.chunk_size ac);
      let start = ctx.Ir.Ctx.lo in
      let todo = Int.min ts.residual.(ord) (ctx.Ir.Ctx.hi - start) in
      ts.work <- 0;
      ts.bytes <- todo * info.Compiled.loop.Ir.Nest.bytes_per_iter;
      for k = 0 to todo - 1 do
        ctx.Ir.Ctx.lo <- start + k;
        exec_segs c ts ctxs (start + k) info.Compiled.loop.Ir.Nest.body
      done;
      emit_iter_exec c ctxs ord ~lo:start ~hi:(start + todo);
      (* ctx.lo is the last executed iteration: the latch sees it, the
         leftover task resumes at lo + 1. A partial chunk ends the
         invocation without a poll; the residual transfers to the next
         invocation of this leaf in this task. *)
      ts.residual.(ord) <- ts.residual.(ord) - todo;
      let polled = ts.residual.(ord) = 0 in
      let chunked =
        match info.Compiled.chunk with
        | Compiled.No_chunking -> false
        | Compiled.Static _ | Compiled.Adaptive -> true
      in
      H.charge_batch t.h ~worker:ts.worker ~work:ts.work ~bytes:ts.bytes ~chunked ~polled;
      let beat =
        polled
        && begin
             (match info.Compiled.chunk with
             | Compiled.Adaptive -> Sched.Adaptive_chunking.on_poll ac
             | Compiled.Static _ | Compiled.No_chunking -> ());
             H.poll t.h ~worker:ts.worker ~count_poll:true || t.cfg.Rt_config.force_promotion
           end
      in
      match if beat then leaf_beat c ts ctxs info ac else None with
      | Some s -> s
      | None ->
          ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1;
          leaf_batches c ts ctxs info ac
    end

  (* A heartbeat detected at a leaf poll: let AC close its interval, then
     promote. *)
  and leaf_beat :
      'e.
      'e nest_handle ->
      task_state ->
      Ir.Ctx.set ->
      'e Compiled.loop_info ->
      Sched.Adaptive_chunking.t ->
      status option =
   fun c ts ctxs info ac ->
    let t = c.st in
    (match info.Compiled.chunk with
    | Compiled.Adaptive when t.capture -> (
        (* Capturing runs pay for the full decision record so the
           sanitizer can replay the update rule; plain runs take the
           alloc-free path. *)
        match Sched.Adaptive_chunking.on_heartbeat_full ac with
        | Some d ->
            H.emit t.h
              (Obs.Trace.Chunk_update
                 {
                   key = ctxs.(c.nest.Compiled.root).Ir.Ctx.lo;
                   chunk = d.Sched.Adaptive_chunking.new_chunk;
                 });
            H.emit t.h
              (Obs.Trace.Chunk_decision
                 {
                   key = slice_key c ctxs info.Compiled.ordinal;
                   old_chunk = d.Sched.Adaptive_chunking.old_chunk;
                   min_polls = d.Sched.Adaptive_chunking.min_polls;
                   chunk = d.Sched.Adaptive_chunking.new_chunk;
                 })
        | None -> ())
    | Compiled.Adaptive -> (
        match Sched.Adaptive_chunking.on_heartbeat ac with
        | Some chunk ->
            H.emit t.h (Obs.Trace.Chunk_update { key = ctxs.(c.nest.Compiled.root).Ir.Ctx.lo; chunk })
        | None -> ())
    | Compiled.Static _ | Compiled.No_chunking -> ());
    if may_promote t ts then promote c ts ctxs info else None

  (* One iteration of a non-leaf DOALL loop per call, then a tail call. *)
  and run_general :
      'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status =
   fun c ts ctxs info ->
    let t = c.st in
    let ord = info.Compiled.ordinal in
    let ctx = ctxs.(ord) in
    if ctx.Ir.Ctx.lo >= ctx.Ir.Ctx.hi then Done
    else begin
      let iter = ctx.Ir.Ctx.lo in
      match run_segments c ts ctxs info.Compiled.loop.Ir.Nest.body iter with
      | Seg_promoted j -> if j = ord then Done else Promoted j
      | Seg_ok -> (
          (* The iteration completed in full inside this task; emitted
             before the latch so a promotion splitting this loop cannot
             lose it. *)
          emit_iter_exec c ctxs ord ~lo:iter ~hi:(iter + 1);
          (* Latch of a non-leaf DOALL loop: promotion-handler call guarded
             by a branch; the heartbeat visibility itself is the leaf poll's
             (or the interrupt flag), so the check does not count as a poll.
             The iteration's own memory traffic is booked here too. *)
          H.charge_latch t.h ~bytes:info.Compiled.loop.Ir.Nest.bytes_per_iter;
          let beat =
            H.poll t.h ~worker:ts.worker ~count_poll:false || t.cfg.Rt_config.force_promotion
          in
          match if beat && may_promote t ts then promote c ts ctxs info else None with
          | Some s -> s
          | None ->
              ctx.Ir.Ctx.lo <- iter + 1;
              run_general c ts ctxs info)
    end

  and run_segments :
      'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Ir.Nest.segment list -> int -> seg_result
      =
   fun c ts ctxs segs iter ->
    match segs with
    | [] -> Seg_ok
    | Ir.Nest.Stmt s :: rest ->
        H.add_work c.st.h ~worker:ts.worker (s.Ir.Nest.exec c.env ctxs iter);
        run_segments c ts ctxs rest iter
    | Ir.Nest.Nested child :: rest ->
        let o = child.Ir.Nest.ordinal in
        if c.nest.Compiled.infos.(o).Compiled.doall then begin
          let lo, hi = child.Ir.Nest.bounds c.env ctxs in
          Ir.Ctx.set_slice ctxs.(o) ~lo ~hi;
          (* A fresh invocation (re)establishes the child's locals; a
             slice resumed by a leftover task keeps its partial state
             instead. *)
          (match child.Ir.Nest.init with
          | Some f -> f c.env ctxs.(o).Ir.Ctx.locals
          | None -> ());
          emit_slice_enter c ctxs o;
          H.charge_lst_store c.st.h;
          match run_slice c ts ctxs o with
          | Done -> run_segments c ts ctxs rest iter
          | Promoted j -> Seg_promoted j
        end
        else begin
          ts.work <- 0;
          ts.bytes <- 0;
          serial_loop c ts ctxs child;
          H.charge_serial c.st.h ~worker:ts.worker ~work:ts.work ~bytes:ts.bytes;
          run_segments c ts ctxs rest iter
        end

  (* The promotion handler: policy-chosen split of the current context
     chain, task creation through the shared core, clone-optimized join.
     Where reduction halves combine is the backend's choice
     ([H.combine_in_task]): inside each spawned task (the simulator, whose
     timing pins depend on it) or on the owner after the join, in spawn
     order — concurrent tasks mutating the parent's locals would race, and
     the join's acquire publishes their writes. *)
  and promote :
      'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status option =
   fun c ts ctxs cur ->
    let t = c.st in
    (* splitting an ancestor needs its compiled leftover task; with
       Algorithm 1's leaves-only enumeration, promotions at non-leaf
       latches can only split the interrupted loop itself *)
    let statically_splittable o =
      c.nest.Compiled.infos.(o).Compiled.doall
      && (o = cur.Compiled.ordinal
         || Compiled.find_leftover c.nest ~li:cur.Compiled.ordinal ~lj:o <> None)
    in
    let splittable o = statically_splittable o && Ir.Ctx.remaining ctxs.(o) >= 1 in
    (* Only the suffix of the chain below the task's ownership boundary is
       a legal split target: contexts at or above [forbidden] are frozen
       snapshots whose remaining iterations belong to the spawning task. *)
    let chain = Sched.Policy.owned_suffix ~forbidden:ts.forbidden cur.Compiled.chain_from_root in
    let policy =
      if t.bug = Some Promote_innermost then
        (* Seeded bug: silently invert the configured policy's direction. *)
        Sched.Policy.invert t.cfg.Rt_config.policy
      else t.cfg.Rt_config.policy
    in
    match Sched.Policy.choose_target ~policy ~splittable chain with
    | None -> None
    (* A metered promotion is spent only when a split actually happens:
       beats with no eligible candidate cost nothing. *)
    | Some _ when not (spend_promotion t) -> None
    | Some tgt ->
        Atomic.incr t.promotions;
        if t.capture then
          H.emit t.h
            (Obs.Trace.Promote_choice
               {
                 cur = cur.Compiled.ordinal;
                 tgt;
                 chain =
                   List.map (fun o -> (o, statically_splittable o, Ir.Ctx.remaining ctxs.(o))) chain;
               });
        let tinfo = c.nest.Compiled.infos.(tgt) in
        H.emit t.h (Obs.Trace.promotion tinfo.Compiled.depth);
        H.charge_promotion t.h;
        let tctx = ctxs.(tgt) in
        let rem_lo = tctx.Ir.Ctx.lo + 1 and rem_hi = tctx.Ir.Ctx.hi in
        (* Consume the remaining iterations from the running task;
           everything from here on belongs to the spawned tasks. *)
        tctx.Ir.Ctx.hi <- tctx.Ir.Ctx.lo + 1;
        let mid = Sched.Policy.split_point ~lo:rem_lo ~hi:rem_hi in
        let join = S.new_join t.sc in
        let combine (nctxs : Ir.Ctx.set) =
          match tinfo.Compiled.loop.Ir.Nest.reduction with
          | Some f ->
              H.charge_reduction t.h (reduction_cost c.nest.Compiled.specs.(tgt));
              f tctx.Ir.Ctx.locals nctxs.(tgt).Ir.Ctx.locals
          | None -> ()
        in
        let spawned = ref [] in
        let spawn_slice lo hi =
          if hi > lo then begin
            let nctxs = Ir.Ctx.copy_set ctxs in
            Ir.Ctx.refresh_subtree nctxs ~ordinals:tinfo.Compiled.subtree ~specs:c.nest.Compiled.specs;
            Ir.Ctx.set_slice nctxs.(tgt) ~lo ~hi;
            (match tinfo.Compiled.loop.Ir.Nest.init with
            | Some f -> f c.env nctxs.(tgt).Ir.Ctx.locals
            | None -> ());
            if not H.combine_in_task then spawned := nctxs :: !spawned;
            S.add_pending join;
            S.push_task t.sc
              (S.mk_task t.sc (fun () ->
                   let ts' = fresh_task_state c in
                   ts'.forbidden <- Option.value ~default:(-1) tinfo.Compiled.parent;
                   (match run_slice c ts' nctxs tgt with Done | Promoted _ -> ());
                   if H.combine_in_task then combine nctxs;
                   S.finish_join t.sc join))
          end
        in
        spawn_slice rem_lo mid;
        spawn_slice mid rem_hi;
        (if tgt <> cur.Compiled.ordinal then
           match Compiled.find_leftover c.nest ~li:cur.Compiled.ordinal ~lj:tgt with
           | None ->
               raise
                 (Internal_error
                    (Printf.sprintf "missing leftover task for pair (%d, %d)" cur.Compiled.ordinal
                       tgt))
           | Some leftover -> (
               let lctxs = Ir.Ctx.copy_set ctxs in
               let spawn_leftover lctxs =
                 S.add_pending join;
                 S.push_task t.sc
                   (S.mk_task t.sc (fun () ->
                        run_leftover c ~no_promote:false lctxs leftover;
                        S.finish_join t.sc join))
               in
               match t.cfg.Rt_config.leftover with
               | Rt_config.Spawn ->
                   spawn_leftover lctxs;
                   if
                     t.bug = Some Duplicate_leftover
                     && Atomic.compare_and_set t.bug_fired false true
                   then
                     (* Seeded bug: the leftover is pushed twice; its
                        iterations execute twice (the duplicate gets its own
                        context copy so both runs cover the full range). *)
                     spawn_leftover (Ir.Ctx.copy_set lctxs)
               | Rt_config.Inline ->
                   (* TPAL: the leftover stays on the promoting task's
                      critical path — executed here, inside the handler,
                      before the join; it cannot be stolen, but its loops
                      keep their promotion points. *)
                   run_leftover c ~no_promote:false lctxs leftover));
        S.join_wait t.sc join;
        List.iter combine (List.rev !spawned);
        Some (if tgt = cur.Compiled.ordinal then Done else Promoted tgt)

  and run_leftover :
      'e. 'e nest_handle -> no_promote:bool -> Ir.Ctx.set -> Compiled.leftover -> unit =
   fun c ~no_promote ctxs leftover ->
    H.emit c.st.h Obs.Trace.Leftover_run;
    let ts = fresh_task_state c in
    ts.no_promote <- no_promote;
    ts.forbidden <- leftover.Compiled.lj;
    let steps = Array.of_list leftover.Compiled.steps in
    let is_call = function
      | Compiled.Call_slice o -> Some o
      | Compiled.Increase_iv _ | Compiled.Tail_work _ -> None
    in
    let exec step =
      match step with
      | Compiled.Increase_iv o ->
          ctxs.(o).Ir.Ctx.lo <- ctxs.(o).Ir.Ctx.lo + 1;
          Sched.Leftover_walk.Next
      | Compiled.Call_slice o -> (
          match run_slice c ts ctxs o with
          | Done -> Sched.Leftover_walk.Next
          | Promoted j when j = o -> Sched.Leftover_walk.Next
          | Promoted j -> Sched.Leftover_walk.Skip_past j)
      | Compiled.Tail_work { of_; after } -> (
          let segs = Compiled.tail_of c.nest.Compiled.infos.(of_) ~after in
          let iter = ctxs.(of_).Ir.Ctx.lo in
          match run_segments c ts ctxs segs iter with
          | Seg_ok ->
              (* The tail just completed the in-flight iteration of [of_]
                 that the promotion interrupted — it is only now fully
                 executed. *)
              emit_iter_exec c ctxs of_ ~lo:iter ~hi:(iter + 1);
              Sched.Leftover_walk.Next
          | Seg_promoted j -> Sched.Leftover_walk.Skip_past j)
    in
    try Sched.Leftover_walk.run ~steps ~is_call ~exec
    with Sched.Leftover_walk.Missing_call j ->
      raise (Internal_error (Printf.sprintf "leftover skip: no Call_slice %d" j))

  let exec_nest t (compiled : 'e Pipeline.program) (env : 'e) nest =
    let rec find i = function
      | [] -> raise (Internal_error "exec of a nest the program did not declare")
      | (src, cn) :: rest -> if src == nest then (i, cn) else find (i + 1) rest
    in
    let nest_id, cn = find 0 compiled.Pipeline.nests in
    t.exec_epoch <- t.exec_epoch + 1;
    let c = { st = t; nest = cn; nest_id; env; ac = ac_slots t ~nest_id cn } in
    let n = Ir.Nesting_tree.size cn.Compiled.tree in
    let ctxs = Array.init n (fun o -> Ir.Ctx.make ~ordinal:o ~spec:cn.Compiled.specs.(o)) in
    let root = cn.Compiled.root in
    let rinfo = cn.Compiled.infos.(root) in
    let lo, hi = rinfo.Compiled.loop.Ir.Nest.bounds env ctxs in
    Ir.Ctx.set_slice ctxs.(root) ~lo ~hi;
    (match rinfo.Compiled.loop.Ir.Nest.init with
    | Some f -> f env ctxs.(root).Ir.Ctx.locals
    | None -> ());
    if rinfo.Compiled.doall then emit_slice_enter c ctxs root;
    H.charge_lst_store t.h;
    (match run_slice c (fresh_task_state c) ctxs root with
    | Done -> ()
    | Promoted _ -> raise (Internal_error "root slice reported an ancestor promotion"));
    match rinfo.Compiled.loop.Ir.Nest.commit with Some f -> f env ctxs | None -> ()

  (* ---------------------- pause/resume helpers ----------------------- *)

  (* Observational state at a pause boundary. Every field is a pure
     function of the deterministic dispatch history, so an uninterrupted
     replay reaching the same boundary re-derives the same bytes — that is
     the resume-divergence check. *)
  let checkpoint t (m : machine) ~at_cycle ~episode ~granted ~regrants =
    let live = match t.live_slices with Some l -> l | None -> [||] in
    let slices =
      List.concat
        (List.init (Array.length live) (fun w ->
             (* stacks are LIFO; serialize bottom-to-top for a stable order *)
             List.rev_map
               (fun e ->
                 {
                   Sim.Checkpoint_state.sl_worker = w;
                   sl_task = e.ck_key;
                   sl_nest = e.ck_nest;
                   sl_lo = e.ck_ctx.Ir.Ctx.lo;
                   sl_hi = e.ck_ctx.Ir.Ctx.hi;
                 })
               live.(w)))
    in
    {
      Sim.Checkpoint_state.at_cycle;
      episode;
      rng_state = m.rng_state;
      next_task_id = S.next_task_id t.sc;
      work_cycles = m.work_cycles;
      promotions_used = Atomic.get t.promotions;
      granted;
      regrants;
      clocks = m.clocks;
      deques = m.deques;
      slices;
    }

  let paused t m (request : Run_request.t) ~applied ~at_cycle =
    match request.Run_request.resume_from with
    | None ->
        checkpoint t m ~at_cycle ~episode:1 ~granted:request.Run_request.promotion_budget
          ~regrants:[]
    | Some ck ->
        checkpoint t m ~at_cycle
          ~episode:(ck.Sim.Checkpoint_state.episode + 1)
          ~granted:ck.Sim.Checkpoint_state.granted
          ~regrants:(ck.Sim.Checkpoint_state.regrants @ [ (ck.Sim.Checkpoint_state.at_cycle, applied) ])

  let resume_mismatch t m (ck : Sim.Checkpoint_state.t) =
    let derived =
      checkpoint t m ~at_cycle:ck.Sim.Checkpoint_state.at_cycle
        ~episode:ck.Sim.Checkpoint_state.episode ~granted:ck.Sim.Checkpoint_state.granted
        ~regrants:ck.Sim.Checkpoint_state.regrants
    in
    if Sim.Checkpoint_state.equal derived ck then None
    else
      Some
        (Printf.sprintf "replayed state %s does not match checkpoint %s"
           (Sim.Checkpoint_state.digest derived)
           (Sim.Checkpoint_state.digest ck))

  (* This episode's grant, applied once the replay has been verified at the
     boundary; [None] keeps the remaining balance, which is what
     byte-identical continuation needs. Returns the grant for the regrant
     history ([-1] = kept). *)
  let apply_grant t (request : Run_request.t) =
    match request.Run_request.promotion_budget with
    | Some g ->
        Atomic.set t.promo_left (Stdlib.max 0 g);
        Stdlib.max 0 g
    | None -> -1
end
