(* The flat native API: a domain pool running the shared scheduler core
   ([Sched.Core.Make (Domains_backend)]) with wall-clock heartbeats.
   Promotion split points, deque discipline, steals and joins are the
   policy core's — the same code the virtual-time executor runs — so this
   file only holds the pool lifecycle and the chunked range walker. *)

module C = Sched.Core.Make (Domains_backend)

type pool = {
  b : Domains_backend.t;
  core : C.t;
  n : int;
  domains : unit Domain.t list;
  beat : Beat.t;
  promo_count : int Atomic.t;
  ac : Sched.Adaptive_chunking.t array;  (* per-member adaptive chunking *)
  mutable closed : bool;
}

let initial_chunk = 32

let my_index pool = Domains_backend.worker_id pool.b

let create ?(heartbeat_us = 100.0) ~num_domains () =
  let n = Stdlib.max 1 num_domains in
  let b = Domains_backend.create ~workers:n ~trace:Obs.Trace.Sink.null ~capture:false in
  let core = C.create b in
  let { Hbc_core.Rt_config.ac_target_polls = target_polls; ac_window = window; watchdog_k; _ } =
    Hbc_core.Rt_config.default
  in
  let beat =
    Beat.create (Wall_us heartbeat_us) ~workers:n
      ~injector:(Sim.Fault_injector.inactive ~num_workers:n)
      ~watchdog_k ~on_downgrade:ignore
  in
  let ac =
    Array.init n (fun _ -> Sched.Adaptive_chunking.create ~initial_chunk ~target_polls ~window ())
  in
  (* The caller is worker 0; n-1 extra domains scavenge until shutdown. *)
  let domains = Domains_backend.start b ~work:(fun () -> C.scavenge core) in
  { b; core; n; domains; beat; promo_count = Atomic.make 0; ac; closed = false }

let shutdown pool =
  if not pool.closed then begin
    pool.closed <- true;
    C.set_finished pool.core;
    Domains_backend.stop pool.b pool.domains
  end

let with_pool ?heartbeat_us ~num_domains f =
  let pool = create ?heartbeat_us ~num_domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let num_domains pool = pool.n

let promotions pool = Atomic.get pool.promo_count

(* True when a beat landed on this member. Polls and beats also drive the
   member's adaptive chunking, exactly as in the simulated runtime
   (Sec. 5.1). *)
let poll_beat pool i =
  Sched.Adaptive_chunking.on_poll pool.ac.(i);
  let beat = Beat.consume pool.beat i ~count_poll:true in
  if beat then ignore (Sched.Adaptive_chunking.on_heartbeat pool.ac.(i));
  beat

let current_chunk pool i = Sched.Adaptive_chunking.chunk_size pool.ac.(i)

(* Heartbeat-promoted execution of [lo, hi): run chunks sequentially; on a
   beat, hand the upper half of the remaining range to the scheduler as a
   core task and continue on the lower half, joining (with help-stealing,
   via the core's join_wait) at the end. A task stays on the member that
   started it, so [i] is looked up once per task. *)
let rec run_range : 'a. pool -> ('a -> int -> 'a) -> ('a -> 'a -> 'a) -> 'a -> 'a -> int -> int -> 'a
    =
 fun pool body combine init acc lo hi -> range_chunks pool (my_index pool) body combine init acc lo hi

(* One chunk, then a tail call for the next: no per-chunk allocation. *)
and range_chunks :
      'a. pool -> int -> ('a -> int -> 'a) -> ('a -> 'a -> 'a) -> 'a -> 'a -> int -> int -> 'a =
 fun pool i body combine init acc l hi ->
  if l >= hi then acc
  else begin
    let c = Int.min (current_chunk pool i) (hi - l) in
    let acc = ref acc in
    for k = l to l + c - 1 do
      acc := body !acc k
    done;
    let l = l + c in
    if hi - l > 1 && poll_beat pool i then begin
      let mid = Sched.Policy.split_point ~lo:l ~hi in
      let slot = ref None in
      let join = C.new_join pool.core in
      Atomic.incr pool.promo_count;
      C.add_pending join;
      C.push_task pool.core
        (C.mk_task pool.core (fun () ->
             slot := Some (run_range pool body combine init init mid hi);
             C.finish_join pool.core join));
      let left = range_chunks pool i body combine init !acc l mid in
      C.join_wait pool.core join;
      (* join_wait's pending read is the acquire matching finish_join's
         release, so the slot write is visible here. *)
      combine left (Option.get !slot)
    end
    else range_chunks pool i body combine init !acc l hi
  end

let parallel_for pool ~lo ~hi body =
  if hi > lo then run_range pool (fun () k -> body k) (fun () () -> ()) () () lo hi

let parallel_reduce pool ~lo ~hi ~init ~body ~combine =
  if hi <= lo then init else run_range pool body combine init init lo hi
