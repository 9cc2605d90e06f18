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
  mutable domains : unit Domain.t list;
  hb_interval : int;  (* monotonic ns *)
  promo_count : int Atomic.t;
  next_beat : int array;
  ac : Sched.Adaptive_chunking.t array;  (* per-member adaptive chunking *)
  mutable closed : bool;
}

let initial_chunk = 32

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let my_index pool = Domains_backend.worker_id pool.b

let worker pool i () =
  Domains_backend.register ~worker:i;
  C.scavenge pool.core

let create ?(heartbeat_us = 100.0) ~num_domains () =
  let n = Stdlib.max 1 num_domains in
  let b = Domains_backend.create ~workers:n ~trace:Obs.Trace.Sink.null ~capture:false in
  let pool =
    {
      b;
      core = C.create b;
      n;
      domains = [];
      hb_interval = int_of_float (heartbeat_us *. 1e3);
      promo_count = Atomic.make 0;
      next_beat = Array.make n 0;
      ac =
        Array.init n (fun _ ->
            Sched.Adaptive_chunking.create ~initial_chunk ~target_polls:8 ~window:2 ());
      closed = false;
    }
  in
  Array.fill pool.next_beat 0 n (now_ns () + pool.hb_interval);
  (* The caller is worker 0; n-1 extra domains scavenge until shutdown.
     The monitor bounds how long a parked member can be stranded by a
     wakeup that raced its spin-to-park transition. *)
  Domains_backend.register ~worker:0;
  Domains_backend.start_monitor b;
  pool.domains <- List.init (n - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
  pool

let shutdown pool =
  if not pool.closed then begin
    pool.closed <- true;
    C.set_finished pool.core;
    (* Members may be parked: hand every one a wake ticket so the
       finished flag is observed. *)
    Domains_backend.wake_all pool.b;
    List.iter Domain.join pool.domains;
    pool.domains <- [];
    Domains_backend.stop_monitor pool.b
  end

let with_pool ?heartbeat_us ~num_domains f =
  let pool = create ?heartbeat_us ~num_domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let num_domains pool = pool.n

let promotions pool = Atomic.get pool.promo_count

(* Poll the clock: true when a heartbeat interval elapsed on this member.
   Polls and beats also drive the member's adaptive chunking, exactly as in
   the simulated runtime (Sec. 5.1). *)
let poll_beat pool i =
  Sched.Adaptive_chunking.on_poll pool.ac.(i);
  let t = now_ns () in
  if t >= pool.next_beat.(i) then begin
    pool.next_beat.(i) <- t + pool.hb_interval;
    ignore (Sched.Adaptive_chunking.on_heartbeat pool.ac.(i));
    true
  end
  else false

let current_chunk pool i = Sched.Adaptive_chunking.chunk_size pool.ac.(i)

let chunk_size_of pool ~member = Sched.Adaptive_chunking.chunk_size pool.ac.(member)

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
    let c = Stdlib.min (current_chunk pool i) (hi - l) in
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
