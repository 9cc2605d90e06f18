(* The constructors, [kinds], [kind_index] and [kind_names] all list the
   kinds in name order, so the attribution view comes out sorted. A
   kind's index is its slot in the per-kind store. *)
type kind =
  | Chunk_transfer
  | Chunking
  | Closure
  | Fault_stall
  | Idle_backoff
  | Interrupt
  | Join
  | Lst_store
  | Membus
  | Omp_contention
  | Omp_dispatch
  | Omp_fork
  | Omp_join
  | Omp_reduce
  | Omp_setup
  | Omp_spawn
  | Outline_call
  | Poll
  | Promotion
  | Promotion_branch
  | Reduction
  | Steal

let kinds =
  [
    Chunk_transfer; Chunking; Closure; Fault_stall; Idle_backoff; Interrupt; Join; Lst_store;
    Membus; Omp_contention; Omp_dispatch; Omp_fork; Omp_join; Omp_reduce; Omp_setup; Omp_spawn;
    Outline_call; Poll; Promotion; Promotion_branch; Reduction; Steal;
  ]

let kind_index = function
  | Chunk_transfer -> 0
  | Chunking -> 1
  | Closure -> 2
  | Fault_stall -> 3
  | Idle_backoff -> 4
  | Interrupt -> 5
  | Join -> 6
  | Lst_store -> 7
  | Membus -> 8
  | Omp_contention -> 9
  | Omp_dispatch -> 10
  | Omp_fork -> 11
  | Omp_join -> 12
  | Omp_reduce -> 13
  | Omp_setup -> 14
  | Omp_spawn -> 15
  | Outline_call -> 16
  | Poll -> 17
  | Promotion -> 18
  | Promotion_branch -> 19
  | Reduction -> 20
  | Steal -> 21

let kind_names =
  [|
    "chunk-transfer"; "chunking"; "closure"; "fault-stall"; "idle-backoff"; "interrupt"; "join";
    "lst-store"; "membus"; "omp-contention"; "omp-dispatch"; "omp-fork"; "omp-join"; "omp-reduce";
    "omp-setup"; "omp-spawn"; "outline-call"; "poll"; "promotion"; "promotion-branch"; "reduction";
    "steal";
  |]

let kind_name k = kind_names.(kind_index k)

let kind_of_name name = List.find_opt (fun k -> kind_name k = name) kinds

type t = {
  mutable heartbeats_generated : int;
  mutable heartbeats_detected : int;
  mutable heartbeats_missed : int;
  mutable polls : int;
  mutable promotions : int;
  promotions_by_level : int array;
  mutable tasks_spawned : int;
  mutable leftover_tasks_run : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable join_slow_paths : int;
  mutable chunk_updates : int;
  mutable work_cycles : int;
  mutable overhead_cycles : int;
  overhead_by_kind : int array;
  mutable faults_beats_dropped : int;
  mutable faults_beats_delayed : int;
  mutable faults_steals_failed : int;
  mutable faults_stalls : int;
  mutable faults_stall_cycles : int;
  mutable faults_wakeups_delayed : int;
  mutable downgrades : int;
}

let create () =
  {
    heartbeats_generated = 0;
    heartbeats_detected = 0;
    heartbeats_missed = 0;
    polls = 0;
    promotions = 0;
    promotions_by_level = Array.make 8 0;
    tasks_spawned = 0;
    leftover_tasks_run = 0;
    steals = 0;
    steal_attempts = 0;
    join_slow_paths = 0;
    chunk_updates = 0;
    work_cycles = 0;
    overhead_cycles = 0;
    overhead_by_kind = Array.make (Array.length kind_names) 0;
    faults_beats_dropped = 0;
    faults_beats_delayed = 0;
    faults_steals_failed = 0;
    faults_stalls = 0;
    faults_stall_cycles = 0;
    faults_wakeups_delayed = 0;
    downgrades = 0;
  }

let add_overhead t kind c =
  t.overhead_cycles <- t.overhead_cycles + c;
  let i = kind_index kind in
  t.overhead_by_kind.(i) <- t.overhead_by_kind.(i) + c

let promotion_at_level t level =
  t.promotions <- t.promotions + 1;
  let level = Int.min level (Array.length t.promotions_by_level - 1) in
  t.promotions_by_level.(level) <- t.promotions_by_level.(level) + 1

let overhead_of t kind = t.overhead_by_kind.(kind_index kind)

let attribution t =
  List.fold_right
    (fun k acc ->
      let c = overhead_of t k in
      if c <> 0 then (kind_name k, c) :: acc else acc)
    kinds []

let restore_overhead t name c =
  Option.iter (fun k -> t.overhead_by_kind.(kind_index k) <- c) (kind_of_name name)

let promotion_share_by_level t =
  let total = Float.of_int t.promotions in
  Array.map
    (fun n -> if total = 0.0 then 0.0 else 100.0 *. Float.of_int n /. total)
    t.promotions_by_level

let detection_rate t =
  if t.heartbeats_generated = 0 then 100.0
  else 100.0 *. Float.of_int t.heartbeats_detected /. Float.of_int t.heartbeats_generated

let downgrade_count t = t.downgrades

let faults_injected t =
  t.faults_beats_dropped + t.faults_beats_delayed + t.faults_steals_failed + t.faults_stalls
  + t.faults_wakeups_delayed

(* The always-on counting sink: every scalar counter that reflects a
   discrete runtime occurrence is derived from the trace-event stream, so
   the runtime has exactly one emission site per occurrence and the
   counters cannot drift from what a capturing sink records. *)
let count_event t (ev : Obs.Trace.event) =
  match ev with
  | Obs.Trace.Heartbeat_generated -> t.heartbeats_generated <- t.heartbeats_generated + 1
  | Obs.Trace.Heartbeat_detected -> t.heartbeats_detected <- t.heartbeats_detected + 1
  | Obs.Trace.Heartbeat_missed -> t.heartbeats_missed <- t.heartbeats_missed + 1
  | Obs.Trace.Poll -> t.polls <- t.polls + 1
  | Obs.Trace.Promotion { level } -> promotion_at_level t level
  | Obs.Trace.Steal_attempt -> t.steal_attempts <- t.steal_attempts + 1
  | Obs.Trace.Steal_success -> t.steals <- t.steals + 1
  | Obs.Trace.Task_spawned -> t.tasks_spawned <- t.tasks_spawned + 1
  | Obs.Trace.Task_joined_slow -> t.join_slow_paths <- t.join_slow_paths + 1
  | Obs.Trace.Leftover_run -> t.leftover_tasks_run <- t.leftover_tasks_run + 1
  | Obs.Trace.Chunk_update _ -> t.chunk_updates <- t.chunk_updates + 1
  | Obs.Trace.Fault_injected Obs.Trace.Beat_dropped ->
      t.faults_beats_dropped <- t.faults_beats_dropped + 1
  | Obs.Trace.Fault_injected (Obs.Trace.Beat_delayed _) ->
      t.faults_beats_delayed <- t.faults_beats_delayed + 1
  | Obs.Trace.Fault_injected Obs.Trace.Steal_failed ->
      t.faults_steals_failed <- t.faults_steals_failed + 1
  | Obs.Trace.Fault_injected (Obs.Trace.Stall c) ->
      t.faults_stalls <- t.faults_stalls + 1;
      t.faults_stall_cycles <- t.faults_stall_cycles + c
  | Obs.Trace.Fault_injected Obs.Trace.Wakeup_delayed ->
      t.faults_wakeups_delayed <- t.faults_wakeups_delayed + 1
  | Obs.Trace.Mechanism_downgrade -> t.downgrades <- t.downgrades + 1
  | Obs.Trace.Interval _ -> ()
  (* Sanitizer bookkeeping events: pure trace payload, no scalar counter.
     The discrete occurrences they describe are already counted above
     (Task_spawned, Steal_success, Promotion, Chunk_update). *)
  | Obs.Trace.Slice_enter _ | Obs.Trace.Iter_exec _ | Obs.Trace.Task_pushed _
  | Obs.Trace.Task_popped _ | Obs.Trace.Task_stolen _ | Obs.Trace.Task_exec _
  | Obs.Trace.Chunk_decision _ | Obs.Trace.Promote_choice _ -> ()

let counting_sink t = Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ ev -> count_event t ev)

(* Scalar-counter reflection for the experiment journal: one authoritative
   list of (name, getter, setter) so the checkpoint codec cannot silently
   drift from the record when counters are added. *)
let counter_specs : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("heartbeats_generated", (fun t -> t.heartbeats_generated), fun t v -> t.heartbeats_generated <- v);
    ("heartbeats_detected", (fun t -> t.heartbeats_detected), fun t v -> t.heartbeats_detected <- v);
    ("heartbeats_missed", (fun t -> t.heartbeats_missed), fun t v -> t.heartbeats_missed <- v);
    ("polls", (fun t -> t.polls), fun t v -> t.polls <- v);
    ("promotions", (fun t -> t.promotions), fun t v -> t.promotions <- v);
    ("tasks_spawned", (fun t -> t.tasks_spawned), fun t v -> t.tasks_spawned <- v);
    ("leftover_tasks_run", (fun t -> t.leftover_tasks_run), fun t v -> t.leftover_tasks_run <- v);
    ("steals", (fun t -> t.steals), fun t v -> t.steals <- v);
    ("steal_attempts", (fun t -> t.steal_attempts), fun t v -> t.steal_attempts <- v);
    ("join_slow_paths", (fun t -> t.join_slow_paths), fun t v -> t.join_slow_paths <- v);
    ("chunk_updates", (fun t -> t.chunk_updates), fun t v -> t.chunk_updates <- v);
    ("work_cycles", (fun t -> t.work_cycles), fun t v -> t.work_cycles <- v);
    ("overhead_cycles", (fun t -> t.overhead_cycles), fun t v -> t.overhead_cycles <- v);
    ("faults_beats_dropped", (fun t -> t.faults_beats_dropped), fun t v -> t.faults_beats_dropped <- v);
    ("faults_beats_delayed", (fun t -> t.faults_beats_delayed), fun t v -> t.faults_beats_delayed <- v);
    ("faults_steals_failed", (fun t -> t.faults_steals_failed), fun t v -> t.faults_steals_failed <- v);
    ("faults_stalls", (fun t -> t.faults_stalls), fun t v -> t.faults_stalls <- v);
    ("faults_stall_cycles", (fun t -> t.faults_stall_cycles), fun t v -> t.faults_stall_cycles <- v);
    ("faults_wakeups_delayed", (fun t -> t.faults_wakeups_delayed), fun t v -> t.faults_wakeups_delayed <- v);
    ("downgrades", (fun t -> t.downgrades), fun t v -> t.downgrades <- v);
  ]

let counters t = List.map (fun (name, get, _) -> (name, get t)) counter_specs

let restore_counter t name v =
  match List.find_opt (fun (n, _, _) -> n = name) counter_specs with
  | Some (_, _, set) -> set t v
  | None -> ()
