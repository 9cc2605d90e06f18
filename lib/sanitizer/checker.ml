type invariant =
  | Work_conservation
  | Deque_discipline
  | Promotion_policy
  | Chunk_consistency
  | Clock_sanity

let invariant_name = function
  | Work_conservation -> "work-conservation"
  | Deque_discipline -> "deque-discipline"
  | Promotion_policy -> "promotion-policy"
  | Chunk_consistency -> "chunk-consistency"
  | Clock_sanity -> "clock-sanity"

type violation = {
  invariant : invariant;
  time : int;
  worker : int;
  message : string;
  window : Obs.Trace.record list;
}

exception Violation of violation

type config = { policy : Hbc_core.Rt_config.promotion_policy; ac_target_polls : int }

let config_of_rt (cfg : Hbc_core.Rt_config.t) =
  { policy = cfg.Hbc_core.Rt_config.policy; ac_target_polls = cfg.Hbc_core.Rt_config.ac_target_polls }

(* Per-invocation coverage: [covered] is a sorted list of disjoint
   executed intervals inside [s_lo, s_hi). *)
type slice_state = { s_lo : int; s_hi : int; mutable covered : (int * int) list }

(* Task lifecycle replayed from the deque records. *)
type task_phase = Pushed | Taken | Executed

type t = {
  cfg : config;
  strict : bool;
  window_cap : int;
  max_violations : int;
  window : Obs.Trace.record Queue.t;
  mutable seq : int;
  mutable records : int;
  mutable last_time : int;
  slices : (int * int * int, slice_state) Hashtbl.t;  (* (nest, ord, key) *)
  tasks : (int, task_phase) Hashtbl.t;
  shadow : (int, int Sim.Deque.t) Hashtbl.t;  (* worker -> shadow deque of ids *)
  last_interval_end : (int, int) Hashtbl.t;  (* worker -> end of last Interval *)
  mutable kept : violation list;  (* newest first *)
  mutable count : int;
  mutable finished : bool;
}

let create ?(strict = false) ?(window = 32) ?(max_violations = 100) cfg =
  {
    cfg;
    strict;
    window_cap = Stdlib.max 1 window;
    max_violations;
    window = Queue.create ();
    seq = 0;
    records = 0;
    last_time = 0;
    slices = Hashtbl.create 64;
    tasks = Hashtbl.create 64;
    shadow = Hashtbl.create 8;
    last_interval_end = Hashtbl.create 8;
    kept = [];
    count = 0;
    finished = false;
  }

let violate t ~time ~worker invariant message =
  let v = { invariant; time; worker; message; window = List.of_seq (Queue.to_seq t.window) } in
  t.count <- t.count + 1;
  if List.length t.kept < t.max_violations then t.kept <- v :: t.kept;
  if t.strict then raise (Violation v)

let shadow_deque t worker =
  match Hashtbl.find_opt t.shadow worker with
  | Some d -> d
  | None ->
      let d = Sim.Deque.create () in
      Hashtbl.add t.shadow worker d;
      d

let phase_name = function Pushed -> "enqueued" | Taken -> "taken" | Executed -> "executed"

(* Insert [lo, hi) into a sorted disjoint interval list, or report the
   first already-covered interval it overlaps. *)
let insert_interval ss ~lo ~hi =
  let rec go acc = function
    | [] -> Ok (List.rev_append acc [ (lo, hi) ])
    | (a, b) :: rest ->
        if hi <= a then Ok (List.rev_append acc ((lo, hi) :: (a, b) :: rest))
        else if b <= lo then go ((a, b) :: acc) rest
        else Error (a, b)
  in
  match go [] ss.covered with
  | Ok l ->
      ss.covered <- l;
      None
  | Error ab -> Some ab

let on_slice_enter t ~time ~worker ~nest ~ord ~key ~lo ~hi =
  let k = (nest, ord, key) in
  match Hashtbl.find_opt t.slices k with
  | Some _ ->
      violate t ~time ~worker Work_conservation
        (Printf.sprintf "slice invocation (nest %d, loop %d, key %d) entered twice" nest ord key)
  | None -> Hashtbl.add t.slices k { s_lo = lo; s_hi = hi; covered = [] }

let on_iter_exec t ~time ~worker ~nest ~ord ~key ~lo ~hi =
  let k = (nest, ord, key) in
  match Hashtbl.find_opt t.slices k with
  | None ->
      violate t ~time ~worker Work_conservation
        (Printf.sprintf "iterations [%d, %d) executed for unknown slice invocation (nest %d, loop %d, key %d)"
           lo hi nest ord key)
  | Some ss ->
      if lo < ss.s_lo || hi > ss.s_hi then
        violate t ~time ~worker Work_conservation
          (Printf.sprintf
             "iterations [%d, %d) executed outside slice bounds [%d, %d) (nest %d, loop %d)" lo hi
             ss.s_lo ss.s_hi nest ord)
      else
        match insert_interval ss ~lo ~hi with
        | None -> ()
        | Some (a, b) ->
            violate t ~time ~worker Work_conservation
              (Printf.sprintf
                 "iterations [%d, %d) of (nest %d, loop %d) executed twice (overlap with [%d, %d))"
                 lo hi nest ord a b)

let on_task_pushed t ~time ~worker ~task =
  (match Hashtbl.find_opt t.tasks task with
  | Some _ ->
      violate t ~time ~worker Deque_discipline (Printf.sprintf "task %d pushed twice" task)
  | None -> Hashtbl.replace t.tasks task Pushed);
  Sim.Deque.push_bottom (shadow_deque t worker) task

let take t ~time ~worker ~task how =
  match Hashtbl.find_opt t.tasks task with
  | Some Pushed -> Hashtbl.replace t.tasks task Taken
  | Some (Taken | Executed) as p ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d %s while already %s" task how
           (phase_name (Option.get p)))
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d %s but was never pushed" task how)

let on_task_popped t ~time ~worker ~task =
  (match Sim.Deque.pop_bottom (shadow_deque t worker) with
  | Some id when id = task -> ()
  | Some id ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "owner pop of task %d does not match deque bottom (task %d)" task id)
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "owner pop of task %d from an empty deque" task));
  take t ~time ~worker ~task "popped"

let on_task_stolen t ~time ~worker ~task ~victim =
  if worker = victim then
    violate t ~time ~worker Deque_discipline
      (Printf.sprintf "worker %d stole task %d from its own deque" worker task);
  (match Sim.Deque.steal (shadow_deque t victim) with
  | Some id when id = task -> ()
  | Some id ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "steal of task %d does not match deque top (task %d) of worker %d" task id
           victim)
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "steal of task %d from empty deque of worker %d" task victim));
  take t ~time ~worker ~task "stolen"

let on_task_exec t ~time ~worker ~task =
  match Hashtbl.find_opt t.tasks task with
  | Some Taken -> Hashtbl.replace t.tasks task Executed
  | Some Executed ->
      violate t ~time ~worker Deque_discipline (Printf.sprintf "task %d executed twice" task)
  | Some Pushed ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d executed while still enqueued" task)
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d executed but was never pushed" task)

let on_promote_choice t ~time ~worker ~cur ~tgt ~chain =
  let eligible = List.filter (fun (_, s, rem) -> s && rem >= 1) chain in
  let expected =
    match t.cfg.policy with
    | Hbc_core.Rt_config.Outer_loop_first -> (
        match eligible with [] -> None | (o, _, _) :: _ -> Some o)
    | Hbc_core.Rt_config.Innermost_first -> (
        match List.rev eligible with [] -> None | (o, _, _) :: _ -> Some o)
  in
  match expected with
  | None ->
      violate t ~time ~worker Promotion_policy
        (Printf.sprintf "promotion at loop %d chose loop %d with no eligible candidate" cur tgt)
  | Some e when e <> tgt ->
      let dir =
        match t.cfg.policy with
        | Hbc_core.Rt_config.Outer_loop_first -> "outer-loop-first"
        | Hbc_core.Rt_config.Innermost_first -> "innermost-first"
      in
      violate t ~time ~worker Promotion_policy
        (Printf.sprintf "promotion at loop %d chose loop %d, but %s requires loop %d" cur tgt dir e)
  | Some _ -> ()

let on_chunk_decision t ~time ~worker ~key ~old_chunk ~min_polls ~chunk =
  (* Replay the executor's update rule with the same float operations. *)
  let ratio = Float.of_int min_polls /. Float.of_int t.cfg.ac_target_polls in
  let expected = Stdlib.max 1 (int_of_float (Float.round (Float.of_int old_chunk *. ratio))) in
  if chunk <> expected then
    violate t ~time ~worker Chunk_consistency
      (Printf.sprintf
         "chunk update %d -> %d (slice key %d) does not match rule max 1 (round (%d * %d / %d)) = %d"
         old_chunk chunk key old_chunk min_polls t.cfg.ac_target_polls expected)

let on_interval t ~time ~worker ~t0 =
  if t0 > time then
    violate t ~time ~worker Clock_sanity
      (Printf.sprintf "interval start %d after its own end %d" t0 time);
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.last_interval_end worker) in
  if t0 < prev then
    violate t ~time ~worker Clock_sanity
      (Printf.sprintf "interval [%d, %d) overlaps the previous interval ending at %d on worker %d"
         t0 time prev worker);
  Hashtbl.replace t.last_interval_end worker (Stdlib.max prev time)

let on_event t ~time ~worker (ev : Obs.Trace.event) =
  t.seq <- t.seq + 1;
  t.records <- t.records + 1;
  let record = { Obs.Trace.seq = t.seq; time; worker; event = ev } in
  if Queue.length t.window >= t.window_cap then ignore (Queue.pop t.window);
  Queue.push record t.window;
  (* The engine dispatches fibers in global nondecreasing virtual-time
     order, so every emission — any worker, any source — must carry a
     time >= the previous one. *)
  if time < t.last_time then
    violate t ~time ~worker Clock_sanity
      (Printf.sprintf "record time %d went backwards (previous record at %d)" time t.last_time);
  t.last_time <- Stdlib.max t.last_time time;
  match ev with
  | Obs.Trace.Slice_enter { nest; ord; key; lo; hi } ->
      on_slice_enter t ~time ~worker ~nest ~ord ~key ~lo ~hi
  | Obs.Trace.Iter_exec { nest; ord; key; lo; hi } ->
      on_iter_exec t ~time ~worker ~nest ~ord ~key ~lo ~hi
  | Obs.Trace.Task_pushed { task } -> on_task_pushed t ~time ~worker ~task
  | Obs.Trace.Task_popped { task } -> on_task_popped t ~time ~worker ~task
  | Obs.Trace.Task_stolen { task; victim } -> on_task_stolen t ~time ~worker ~task ~victim
  | Obs.Trace.Task_exec { task } -> on_task_exec t ~time ~worker ~task
  | Obs.Trace.Promote_choice { cur; tgt; chain } -> on_promote_choice t ~time ~worker ~cur ~tgt ~chain
  | Obs.Trace.Chunk_decision { key; old_chunk; min_polls; chunk } ->
      on_chunk_decision t ~time ~worker ~key ~old_chunk ~min_polls ~chunk
  | Obs.Trace.Interval { t0; kind = _ } -> on_interval t ~time ~worker ~t0
  | _ -> ()

let sink t = Obs.Trace.Sink.fn (fun ~time ~worker ev -> on_event t ~time ~worker ev)

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let time = t.last_time and worker = -1 in
    (* Work conservation: every slice invocation's range must be tiled. *)
    let slices = Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.slices [] in
    let slices = List.sort compare slices in
    List.iter
      (fun ((nest, ord, key), ss) ->
        let covered = List.sort compare ss.covered in
        let rec gaps pos = function
          | [] -> if pos < ss.s_hi then [ (pos, ss.s_hi) ] else []
          | (a, b) :: rest -> if pos < a then (pos, a) :: gaps b rest else gaps b rest
        in
        List.iter
          (fun (a, b) ->
            violate t ~time ~worker Work_conservation
              (Printf.sprintf "iterations [%d, %d) of (nest %d, loop %d, key %d) never executed" a
                 b nest ord key))
          (gaps ss.s_lo covered))
      slices;
    (* Deque discipline: no task may remain unexecuted. *)
    let tasks = Hashtbl.fold (fun id p acc -> (id, p) :: acc) t.tasks [] in
    List.iter
      (fun (id, p) ->
        match p with
        | Executed -> ()
        | Pushed ->
            violate t ~time ~worker Deque_discipline
              (Printf.sprintf "task %d pushed but never executed" id)
        | Taken ->
            violate t ~time ~worker Deque_discipline
              (Printf.sprintf "task %d taken from its deque but never executed (lost)" id))
      (List.sort compare tasks)
  end

let violations t = List.rev t.kept

let violation_count t = t.count

let ok t = t.count = 0

let records_seen t = t.records

let summary t =
  if t.count = 0 then
    Printf.sprintf "sanitizer: OK (%d records, %d slices, %d tasks)" t.records
      (Hashtbl.length t.slices) (Hashtbl.length t.tasks)
  else
    match List.rev t.kept with
    | [] -> Printf.sprintf "sanitizer: %d violation(s)" t.count
    | v :: _ ->
        Printf.sprintf "sanitizer: %d violation(s); first [%s] at t=%d w=%d: %s" t.count
          (invariant_name v.invariant) v.time v.worker v.message
