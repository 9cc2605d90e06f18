(* Native heartbeat delivery, shared by [Native_run] and [Hb_par]: the one
   place a poll on real domains decides whether it observed a beat. The
   hot path is [consume]: one call per poll, allocation-free, with chaos
   costing one bool test when no plan is armed. *)

type source = Wall_us of float | Every_polls of int

type t = {
  source : source;
  next_beat : int array;  (* per worker, monotonic ns, Wall_us only *)
  pending : bool array;  (* per worker, Wall_us only: a leaf poll saw the deadline pass *)
  polls : int array;  (* per worker, Every_polls only *)
  progress : int array;
      (* per-worker scheduling-point counter, bumped on every [consume].
         Plain stores — rung-2 reads from other domains race, which the
         watchdog tolerates. *)
  mutable on_sample : unit -> unit;  (* watchdog rung 2, chaos leaf polls only *)
  inj : Sim.Fault_injector.t;
  chaos : bool;  (* [inj] is active *)
  watchdog_k : int;
  stall_left : int array;  (* injected stall: polls left to ignore beats *)
  since_beat : int array;  (* consecutive suppressed beats (watchdog rung 1) *)
  downgraded : bool array;  (* rung 1 tripped: polling fallback, beats always land *)
  on_downgrade : unit -> unit;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let interval_ns us = int_of_float (us *. 1e3)

let create source ~workers ~injector ~watchdog_k ~on_downgrade =
  (match source with
  | Every_polls n when n < 1 -> invalid_arg (Printf.sprintf "Beat.create: Every_polls %d" n)
  | Wall_us us when not (Float.is_finite us && us > 0.0) ->
      invalid_arg (Printf.sprintf "Beat.create: Wall_us %g" us)
  | Every_polls _ | Wall_us _ -> ());
  let n = Stdlib.max 1 workers in
  let first = match source with Wall_us us -> now_ns () + interval_ns us | Every_polls _ -> 0 in
  {
    source;
    next_beat = Array.make n first;
    pending = Array.make n false;
    polls = Array.make n 0;
    progress = Array.make n 0;
    on_sample = ignore;
    inj = injector;
    chaos = Sim.Fault_injector.active injector;
    watchdog_k;
    stall_left = Array.make n 0;
    since_beat = Array.make n 0;
    downgraded = Array.make n false;
    on_downgrade;
  }

let on_sample t f = t.on_sample <- f

let progress t ~worker = t.progress.(worker)

(* A beat reached [w]'s boundary under chaos on a non-downgraded worker:
   decide delivery. An injected stall window or a drop suppresses it;
   [watchdog_k] consecutive suppressions trip rung 1 — from then on the
   worker polls for beats directly (downgraded), so starvation is bounded
   by [watchdog_k] beat periods. *)
let chaos_beat t w =
  let suppressed =
    if t.stall_left.(w) > 0 then true
    else begin
      let s = Sim.Fault_injector.stall_polls t.inj ~worker:w in
      if s > 0 then begin
        t.stall_left.(w) <- s;
        true
      end
      else Sim.Fault_injector.drop_beat t.inj ~worker:w
    end
  in
  if not suppressed then begin
    t.since_beat.(w) <- 0;
    true
  end
  else begin
    t.since_beat.(w) <- t.since_beat.(w) + 1;
    if t.since_beat.(w) >= t.watchdog_k then begin
      t.downgraded.(w) <- true;
      t.stall_left.(w) <- 0;
      t.on_downgrade ();
      (* the fallback poll delivers the beat that tripped the watchdog *)
      true
    end
    else false
  end

(* A leaf poll under chaos: an injected stall window counts down, and
   every 64th poll offers watchdog rung 2 a sample. *)
let chaos_poll t w =
  if t.stall_left.(w) > 0 then t.stall_left.(w) <- t.stall_left.(w) - 1;
  if t.progress.(w) land 63 = 0 then t.on_sample ()

let consume t w ~count_poll =
  t.progress.(w) <- t.progress.(w) + 1;
  if count_poll && t.chaos then chaos_poll t w;
  let boundary =
    match t.source with
    | Every_polls n ->
        if count_poll then t.polls.(w) <- t.polls.(w) + 1;
        if t.polls.(w) >= n then begin
          t.polls.(w) <- 0;
          true
        end
        else false
    | Wall_us us ->
        (* A leaf poll that sees the deadline pass only flags the beat; the
           next check delivers it, usually the enclosing loop's latch. *)
        let taken = t.pending.(w) in
        if taken then t.pending.(w) <- false
        else if count_poll then begin
          let now = now_ns () in
          if now >= t.next_beat.(w) then begin
            t.next_beat.(w) <- now + interval_ns us;
            t.pending.(w) <- true
          end
        end;
        taken
  in
  boundary && ((not t.chaos) || t.downgraded.(w) || chaos_beat t w)
