type fault =
  | Beat_dropped
  | Beat_delayed of int
  | Steal_failed
  | Stall of int
  | Wakeup_delayed

type event =
  | Heartbeat_generated
  | Heartbeat_detected
  | Heartbeat_missed
  | Poll
  | Promotion of { level : int }
  | Steal_attempt
  | Steal_success
  | Task_spawned
  | Task_joined_slow
  | Leftover_run
  | Chunk_update of { key : int; chunk : int }
  | Fault_injected of fault
  | Mechanism_downgrade
  | Interval of { t0 : int; kind : string }
  | Slice_enter of { nest : int; ord : int; key : int; lo : int; hi : int }
  | Iter_exec of { nest : int; ord : int; key : int; lo : int; hi : int }
  | Task_pushed of { task : int }
  | Task_popped of { task : int }
  | Task_stolen of { task : int; victim : int }
  | Task_exec of { task : int }
  | Chunk_decision of { key : int; old_chunk : int; min_polls : int; chunk : int }
  | Promote_choice of { cur : int; tgt : int; chain : (int * bool * int) list }

type record = { seq : int; time : int; worker : int; event : event }

(* Promotion levels are tiny (loop-nest depth) and events are immutable,
   so every emission of a small level shares one preallocated value
   instead of allocating a fresh [Promotion] block on the hot path. *)
let promotion_cache = Array.init 8 (fun level -> Promotion { level })

let promotion level =
  if level >= 0 && level < 8 then promotion_cache.(level) else Promotion { level }

let event_name = function
  | Heartbeat_generated -> "heartbeat-generated"
  | Heartbeat_detected -> "heartbeat-detected"
  | Heartbeat_missed -> "heartbeat-missed"
  | Poll -> "poll"
  | Promotion _ -> "promotion"
  | Steal_attempt -> "steal-attempt"
  | Steal_success -> "steal-success"
  | Task_spawned -> "task-spawned"
  | Task_joined_slow -> "task-joined-slow"
  | Leftover_run -> "leftover-run"
  | Chunk_update _ -> "chunk-update"
  | Fault_injected _ -> "fault-injected"
  | Mechanism_downgrade -> "mechanism-downgrade"
  | Interval _ -> "interval"
  | Slice_enter _ -> "slice-enter"
  | Iter_exec _ -> "iter-exec"
  | Task_pushed _ -> "task-pushed"
  | Task_popped _ -> "task-popped"
  | Task_stolen _ -> "task-stolen"
  | Task_exec _ -> "task-exec"
  | Chunk_decision _ -> "chunk-decision"
  | Promote_choice _ -> "promote-choice"

module Sink = struct
  type stream = {
    s_keep : event -> bool;
    mutable items : record list;  (* newest first; reversed on capture *)
    mutable s_len : int;
    mutable s_seq : int;
  }

  (* One bounded buffer per worker; a slot's [seq >= 0] marks it filled.
     Overwrites advance [head] and count as drops. *)
  type ring = {
    r_keep : event -> bool;
    capacity : int;
    bufs : record array array;
    heads : int array;
    lens : int array;
    mutable r_seq : int;
    mutable r_dropped : int;
  }

  type t =
    | Null
    | Stream of stream
    | Ring of ring
    | Fn of (time:int -> worker:int -> event -> unit)
    | Tee of t * t

  let null = Null

  let keep_all _ = true

  let stream ?(keep = keep_all) () = Stream { s_keep = keep; items = []; s_len = 0; s_seq = 0 }

  let dummy = { seq = -1; time = 0; worker = 0; event = Poll }

  let ring ?(keep = keep_all) ~workers ~capacity () =
    let workers = Stdlib.max 1 workers and capacity = Stdlib.max 1 capacity in
    Ring
      {
        r_keep = keep;
        capacity;
        bufs = Array.init workers (fun _ -> Array.make capacity dummy);
        heads = Array.make workers 0;
        lens = Array.make workers 0;
        r_seq = 0;
        r_dropped = 0;
      }

  let fn f = Fn f

  let tee a b = match (a, b) with Null, s | s, Null -> s | a, b -> Tee (a, b)

  let rec enabled = function
    | Null -> false
    | Stream _ | Ring _ | Fn _ -> true
    | Tee (a, b) -> enabled a || enabled b

  let rec captures = function
    | Null | Fn _ -> false
    | Stream _ | Ring _ -> true
    | Tee (a, b) -> captures a || captures b

  let push_ring r ~time ~worker ev =
    let w = if worker < 0 || worker >= Array.length r.bufs then 0 else worker in
    let rec_ = { seq = r.r_seq; time; worker; event = ev } in
    r.r_seq <- r.r_seq + 1;
    if r.lens.(w) < r.capacity then begin
      r.bufs.(w).((r.heads.(w) + r.lens.(w)) mod r.capacity) <- rec_;
      r.lens.(w) <- r.lens.(w) + 1
    end
    else begin
      (* full: overwrite the oldest slot *)
      r.bufs.(w).(r.heads.(w)) <- rec_;
      r.heads.(w) <- (r.heads.(w) + 1) mod r.capacity;
      r.r_dropped <- r.r_dropped + 1
    end

  let rec emit t ~time ~worker ev =
    match t with
    | Null -> ()
    | Stream s ->
        if s.s_keep ev then begin
          s.items <- { seq = s.s_seq; time; worker; event = ev } :: s.items;
          s.s_len <- s.s_len + 1;
          s.s_seq <- s.s_seq + 1
        end
    | Ring r -> if r.r_keep ev then push_ring r ~time ~worker ev
    | Fn f -> f ~time ~worker ev
    | Tee (a, b) ->
        emit a ~time ~worker ev;
        emit b ~time ~worker ev

  let ring_records r =
    let out = ref [] in
    Array.iteri
      (fun w buf ->
        for i = r.lens.(w) - 1 downto 0 do
          out := buf.((r.heads.(w) + i) mod r.capacity) :: !out
        done)
      r.bufs;
    List.sort (fun a b -> compare a.seq b.seq) !out

  (* Each branch of a tee assigns its own [seq] numbers, so branch lists can
     only be recombined on the emission timestamp. Branch lists are already
     time-sorted (the engine dispatches in virtual-time order), so a stable
     merge — left branch first on ties — reconstructs one chronological
     stream instead of concatenating the branches back to back. *)
  let rec merge_by_time a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
        if x.time <= y.time then x :: merge_by_time xs b else y :: merge_by_time a ys

  let rec captured = function
    | Null | Fn _ -> []
    | Stream s -> List.rev s.items
    | Ring r -> ring_records r
    | Tee (a, b) -> merge_by_time (captured a) (captured b)

  let rec dropped = function
    | Null | Stream _ | Fn _ -> 0
    | Ring r -> r.r_dropped
    | Tee (a, b) -> dropped a + dropped b
end

(* ------------------------------------------------------------------ *)
(* Journal codec: one compact array per record.                        *)
(* ------------------------------------------------------------------ *)

let fault_tag = function
  | Beat_dropped -> "beat-dropped"
  | Beat_delayed _ -> "beat-delayed"
  | Steal_failed -> "steal-failed"
  | Stall _ -> "stall"
  | Wakeup_delayed -> "wakeup-delayed"

let record_to_json r =
  let base = [ Json.Int r.time; Json.Int r.worker ] in
  let tail =
    match r.event with
    | Heartbeat_generated -> [ Json.Str "hg" ]
    | Heartbeat_detected -> [ Json.Str "hd" ]
    | Heartbeat_missed -> [ Json.Str "hm" ]
    | Poll -> [ Json.Str "po" ]
    | Promotion { level } -> [ Json.Str "pr"; Json.Int level ]
    | Steal_attempt -> [ Json.Str "sa" ]
    | Steal_success -> [ Json.Str "ss" ]
    | Task_spawned -> [ Json.Str "ts" ]
    | Task_joined_slow -> [ Json.Str "tj" ]
    | Leftover_run -> [ Json.Str "lr" ]
    | Chunk_update { key; chunk } -> [ Json.Str "cu"; Json.Int key; Json.Int chunk ]
    | Fault_injected f ->
        Json.Str "fi" :: Json.Str (fault_tag f)
        :: (match f with
           | Beat_delayed j -> [ Json.Int j ]
           | Stall c -> [ Json.Int c ]
           | Beat_dropped | Steal_failed | Wakeup_delayed -> [])
    | Mechanism_downgrade -> [ Json.Str "md" ]
    | Interval { t0; kind } -> [ Json.Str "iv"; Json.Int t0; Json.Str kind ]
    | Slice_enter { nest; ord; key; lo; hi } ->
        [ Json.Str "se"; Json.Int nest; Json.Int ord; Json.Int key; Json.Int lo; Json.Int hi ]
    | Iter_exec { nest; ord; key; lo; hi } ->
        [ Json.Str "ie"; Json.Int nest; Json.Int ord; Json.Int key; Json.Int lo; Json.Int hi ]
    | Task_pushed { task } -> [ Json.Str "dp"; Json.Int task ]
    | Task_popped { task } -> [ Json.Str "dq"; Json.Int task ]
    | Task_stolen { task; victim } -> [ Json.Str "dl"; Json.Int task; Json.Int victim ]
    | Task_exec { task } -> [ Json.Str "dx"; Json.Int task ]
    | Chunk_decision { key; old_chunk; min_polls; chunk } ->
        [ Json.Str "cd"; Json.Int key; Json.Int old_chunk; Json.Int min_polls; Json.Int chunk ]
    | Promote_choice { cur; tgt; chain } ->
        [
          Json.Str "pc";
          Json.Int cur;
          Json.Int tgt;
          Json.Arr
            (List.map
               (fun (o, s, rem) ->
                 Json.Arr [ Json.Int o; Json.Int (if s then 1 else 0); Json.Int rem ])
               chain);
        ]
  in
  Json.Arr (base @ tail)

let event_of_parts = function
  | [ Json.Str "hg" ] -> Some Heartbeat_generated
  | [ Json.Str "hd" ] -> Some Heartbeat_detected
  | [ Json.Str "hm" ] -> Some Heartbeat_missed
  | [ Json.Str "po" ] -> Some Poll
  | [ Json.Str "pr"; Json.Int level ] -> Some (Promotion { level })
  | [ Json.Str "sa" ] -> Some Steal_attempt
  | [ Json.Str "ss" ] -> Some Steal_success
  | [ Json.Str "ts" ] -> Some Task_spawned
  | [ Json.Str "tj" ] -> Some Task_joined_slow
  | [ Json.Str "lr" ] -> Some Leftover_run
  | [ Json.Str "cu"; Json.Int key; Json.Int chunk ] -> Some (Chunk_update { key; chunk })
  | [ Json.Str "fi"; Json.Str "beat-dropped" ] -> Some (Fault_injected Beat_dropped)
  | [ Json.Str "fi"; Json.Str "beat-delayed"; Json.Int j ] ->
      Some (Fault_injected (Beat_delayed j))
  | [ Json.Str "fi"; Json.Str "steal-failed" ] -> Some (Fault_injected Steal_failed)
  | [ Json.Str "fi"; Json.Str "stall"; Json.Int c ] -> Some (Fault_injected (Stall c))
  | [ Json.Str "fi"; Json.Str "wakeup-delayed" ] -> Some (Fault_injected Wakeup_delayed)
  | [ Json.Str "md" ] -> Some Mechanism_downgrade
  | [ Json.Str "iv"; Json.Int t0; Json.Str kind ] -> Some (Interval { t0; kind })
  | [ Json.Str "se"; Json.Int nest; Json.Int ord; Json.Int key; Json.Int lo; Json.Int hi ] ->
      Some (Slice_enter { nest; ord; key; lo; hi })
  | [ Json.Str "ie"; Json.Int nest; Json.Int ord; Json.Int key; Json.Int lo; Json.Int hi ] ->
      Some (Iter_exec { nest; ord; key; lo; hi })
  | [ Json.Str "dp"; Json.Int task ] -> Some (Task_pushed { task })
  | [ Json.Str "dq"; Json.Int task ] -> Some (Task_popped { task })
  | [ Json.Str "dl"; Json.Int task; Json.Int victim ] -> Some (Task_stolen { task; victim })
  | [ Json.Str "dx"; Json.Int task ] -> Some (Task_exec { task })
  | [ Json.Str "cd"; Json.Int key; Json.Int old_chunk; Json.Int min_polls; Json.Int chunk ] ->
      Some (Chunk_decision { key; old_chunk; min_polls; chunk })
  | [ Json.Str "pc"; Json.Int cur; Json.Int tgt; Json.Arr chain ] ->
      let parse_cand = function
        | Json.Arr [ Json.Int o; Json.Int s; Json.Int rem ] -> Some (o, s <> 0, rem)
        | _ -> None
      in
      let cands = List.filter_map parse_cand chain in
      if List.length cands = List.length chain then Some (Promote_choice { cur; tgt; chain = cands })
      else None
  | _ -> None

let records_to_json records = Json.Arr (List.map record_to_json records)

let records_of_json = function
  | Json.Arr items ->
      let seq = ref (-1) in
      List.filter_map
        (function
          | Json.Arr (Json.Int time :: Json.Int worker :: parts) -> (
              match event_of_parts parts with
              | Some event ->
                  incr seq;
                  Some { seq = !seq; time; worker; event }
              | None -> None)
          | _ -> None)
        items
  | _ -> []
