(* Recursive fork-join under heartbeat scheduling. Only the latent-fork
   bookkeeping lives here; deques, steals, wakeups, join help and
   scavenging are the shared scheduler core over the simulator backend,
   the same code that runs the loop interpreter. *)

module S = Sched.Core.Make (Sim_backend)

(* One latent fork: [promote] turns its deferred branch into a stealable
   task; [None] once promoted. *)
type frame = { mutable promote : (unit -> unit) option }

type ctx = {
  cfg : Rt_config.t;
  sb : Sim_backend.t;
  sc : S.t;
  fork_countdown : int array;  (* per worker: forks until the next poll *)
  frames : frame list ref array;  (* per worker: latent forks, newest first *)
  mutable sequential_forks : int;
}

type result = {
  makespan : int;
  work_cycles : int;
  metrics : Sim.Metrics.t;
  sequential_forks : int;
}

let advance ctx c = Sim_backend.add_work ctx.sb c

let advance_bytes ctx ~compute ~bytes =
  Sim_backend.advance_mixed ctx.sb ~work:compute ~overhead:0 ~bytes

(* A task executes with its own latent-fork stack: promotions must never
   reach the frames of whatever invocation the worker interrupted. *)
let with_fresh_frames ctx f =
  let w = Sim_backend.worker_id ctx.sb in
  let saved = !(ctx.frames.(w)) in
  ctx.frames.(w) := [];
  Fun.protect ~finally:(fun () -> ctx.frames.(w) := saved) f

(* Outermost-first promotion: activate the OLDEST latent fork — the largest
   piece of deferred work, the recursive analogue of the loop runtime's
   outer-loop-first policy. *)
let promote_oldest ctx =
  let w = Sim_backend.worker_id ctx.sb in
  let rec oldest_latent acc = function
    | [] -> acc
    | f :: rest -> oldest_latent (if f.promote <> None then Some f else acc) rest
  in
  match oldest_latent None !(ctx.frames.(w)) with
  | None -> ()
  | Some frame ->
      let p = Option.get frame.promote in
      frame.promote <- None;
      Sim_backend.emit ctx.sb (Obs.Trace.Promotion { level = 0 });
      Sim_backend.overhead ctx.sb Sim.Metrics.Promotion
        ctx.sb.Sim_backend.cost.Sim.Cost_model.promotion_handler_cost;
      p ()

(* fork2: the heart of heartbeat scheduling for recursion. A fork is a
   promotion-ready point; the branches run sequentially unless a heartbeat
   elapsed, in which case the right branch becomes a stealable task. *)
let forks_per_poll = 16

let fork2 : 'a 'b. ctx -> (ctx -> 'a) -> (ctx -> 'b) -> 'a * 'b =
 fun ctx f g ->
  let sb = ctx.sb and sc = ctx.sc in
  let w = Sim_backend.worker_id sb in
  (* Like the loop chunking transformation, the TSC poll is amortized over a
     fixed fork budget; the remaining forks only pay the guard branch. *)
  Sim_backend.overhead sb Sim.Metrics.Promotion_branch
    sb.Sim_backend.cost.Sim.Cost_model.promotion_branch_cost;
  ctx.fork_countdown.(w) <- ctx.fork_countdown.(w) - 1;
  if ctx.fork_countdown.(w) <= 0 then begin
    ctx.fork_countdown.(w) <- forks_per_poll;
    let hb = sb.Sim_backend.hb in
    Sim_backend.overhead sb Sim.Metrics.Poll (Heartbeat.poll_cost hb ~worker:w);
    if Heartbeat.consume hb ~worker:w ~count_poll:true && ctx.cfg.Rt_config.promotion then
      promote_oldest ctx
  end;
  (* Register this fork as latent parallelism and run the first branch; a
     later heartbeat (possibly deep inside [f]) may promote our deferred
     second branch into a real task. *)
  let cell = ref None and join = ref None in
  let frame = { promote = None } in
  frame.promote <-
    Some
      (fun () ->
        let j = S.new_join sc in
        S.add_pending j;
        join := Some j;
        S.push_task sc
          (S.mk_task sc (fun () ->
               with_fresh_frames ctx (fun () -> cell := Some (g ctx));
               S.finish_join sc j)));
  ctx.frames.(w) := frame :: !(ctx.frames.(w));
  let a = f ctx in
  (* Unregister: we are back at this fork's join point. *)
  (ctx.frames.(w) :=
     match !(ctx.frames.(w)) with
     | top :: rest when top == frame -> rest
     | other -> List.filter (fun fr -> fr != frame) other);
  match !join with
  | None ->
      (* Fast path: never promoted; run the second branch inline with zero
         synchronization. *)
      ctx.sequential_forks <- ctx.sequential_forks + 1;
      (a, g ctx)
  | Some j ->
      (* Slow path: the branch became a task; help until it completes. *)
      S.join_wait sc j;
      (a, Option.get !cell)

let run ?(cfg = Rt_config.default) main =
  let workers = cfg.Rt_config.workers in
  let sb = Sim_backend.create cfg Run_request.default ~observer:Obs.Trace.Sink.null ~bug:None in
  let sc = S.create sb in
  let ctx =
    {
      cfg;
      sb;
      sc;
      fork_countdown = Array.make workers 0;
      frames = Array.init workers (fun _ -> ref []);
      sequential_forks = 0;
    }
  in
  let eng = sb.Sim_backend.eng and hb = sb.Sim_backend.hb and metrics = sb.Sim_backend.metrics in
  Heartbeat.start hb;
  Sim.Engine.run eng (fun w ->
      if w = 0 then begin
        S.root sc (fun () -> main ctx);
        S.set_finished sc;
        Heartbeat.stop hb;
        Sim.Engine.unpark_all eng
      end
      else S.scavenge sc);
  {
    makespan = Sim.Engine.max_time eng;
    work_cycles = metrics.Sim.Metrics.work_cycles;
    metrics;
    sequential_forks = ctx.sequential_forks;
  }
