type event =
  | Job_submitted of { job : int; tenant : int }
  | Job_admitted of { job : int; tenant : int; queued : int }
  | Job_shed of { job : int; tenant : int; reason : string }
  | Job_started of { job : int; tenant : int; budget : int }
  | Job_preempted of { job : int; tenant : int }
  | Job_checkpointed of { job : int; tenant : int; at_cycle : int }
  | Job_resumed of { job : int; tenant : int; episode : int; budget : int }
  | Job_finished of { job : int; tenant : int; state : string; promotions : int }
  | Breaker_transition of { tenant : int; from_state : string; to_state : string }
  | Budget_refill of { tenant : int; amount : int }

let event_name = function
  | Job_submitted _ -> "job-submitted"
  | Job_admitted _ -> "job-admitted"
  | Job_shed _ -> "job-shed"
  | Job_started _ -> "job-started"
  | Job_preempted _ -> "job-preempted"
  | Job_checkpointed _ -> "job-checkpointed"
  | Job_resumed _ -> "job-resumed"
  | Job_finished _ -> "job-finished"
  | Breaker_transition _ -> "breaker-transition"
  | Budget_refill _ -> "budget-refill"

type invariant = Clock_sanity | Job_conservation | Budget_conservation | Resume_conservation

let invariant_name = function
  | Clock_sanity -> "clock-sanity"
  | Job_conservation -> "job-conservation"
  | Budget_conservation -> "budget-conservation"
  | Resume_conservation -> "resume-conservation"

type violation = { invariant : invariant; time : int; message : string }

(* [Terminal] carries the terminal state name for duplicate-termination
   messages. [granted] accumulates across pause/resume episodes — a
   resumed job's total promotion use is checked against the sum of every
   grant it drew — and [episodes] counts completed pause/resume episodes
   so a [Job_resumed] claiming the wrong episode is flagged. *)
type phase =
  | Submitted
  | Admitted
  | Started of { granted : int; episodes : int }
  | Checkpointed of { granted : int; episodes : int }
  | Terminal of string

type t = {
  mutable events : (int * event) list;  (* newest first *)
  mutable last_time : int;
  jobs : (int, int * phase) Hashtbl.t;  (* job -> (tenant, phase) *)
  balance : (int, int) Hashtbl.t;  (* tenant -> metered promotion balance *)
  mutable kept : violation list;  (* newest first *)
  mutable finished : bool;
}

let create () =
  {
    events = [];
    last_time = 0;
    jobs = Hashtbl.create 16;
    balance = Hashtbl.create 8;
    kept = [];
    finished = false;
  }

let violate t ~time invariant fmt =
  Printf.ksprintf (fun message -> t.kept <- { invariant; time; message } :: t.kept) fmt

let phase_name = function
  | Submitted -> "submitted"
  | Admitted -> "admitted"
  | Started _ -> "started"
  | Checkpointed _ -> "checkpointed"
  | Terminal s -> s

let debit t ~time ~tenant ~budget ~what =
  let balance = Option.value ~default:0 (Hashtbl.find_opt t.balance tenant) - budget in
  Hashtbl.replace t.balance tenant balance;
  if balance < 0 then
    violate t ~time Budget_conservation
      "tenant %d overdrew its promotion meter: %s %d drove the balance to %d" tenant what budget
      balance

let record t ~time ev =
  t.events <- (time, ev) :: t.events;
  if time < t.last_time then
    violate t ~time Clock_sanity "record time %d went backwards (previous record at %d)" time
      t.last_time;
  t.last_time <- Stdlib.max t.last_time time;
  let phase job = Option.map snd (Hashtbl.find_opt t.jobs job) in
  let set job tenant p = Hashtbl.replace t.jobs job (tenant, p) in
  let job_violation inv job what phase never =
    match phase with
    | Some p -> violate t ~time inv "job %d %s while %s" job what (phase_name p)
    | None -> violate t ~time inv "job %d %s but never %s" job what never
  in
  match ev with
  | Job_submitted { job; tenant } -> (
      match phase job with
      | Some p ->
          violate t ~time Job_conservation "job %d submitted twice (already %s)" job (phase_name p)
      | None -> set job tenant Submitted)
  | Job_admitted { job; tenant; queued = _ } -> (
      match phase job with
      | Some Submitted -> set job tenant Admitted
      | p -> job_violation Job_conservation job "admitted" p "submitted")
  | Job_shed { job; tenant; reason } -> (
      match phase job with
      | Some Submitted -> set job tenant (Terminal ("shed:" ^ reason))
      | Some p ->
          violate t ~time Job_conservation
            "job %d shed (%s) while %s — shedding is legal only at submission" job reason
            (phase_name p)
      | None -> violate t ~time Job_conservation "job %d shed (%s) but never submitted" job reason)
  | Job_started { job; tenant; budget } ->
      (match phase job with
      | Some Admitted -> set job tenant (Started { granted = budget; episodes = 0 })
      | p -> job_violation Job_conservation job "started" p "admitted");
      debit t ~time ~tenant ~budget ~what:"grant"
  (* Only a started job checkpoints, only a checkpointed job resumes, and a
     resume's episode number matches the pauses that actually happened. *)
  | Job_checkpointed { job; tenant; at_cycle } -> (
      match phase job with
      | Some (Started { granted; episodes }) ->
          if at_cycle <= 0 then
            violate t ~time Resume_conservation "job %d checkpointed at non-positive cycle %d" job
              at_cycle;
          set job tenant (Checkpointed { granted; episodes = episodes + 1 })
      | p -> job_violation Resume_conservation job "checkpointed" p "submitted")
  | Job_resumed { job; tenant; episode; budget } ->
      (match phase job with
      | Some (Checkpointed { granted; episodes }) ->
          if episode <> episodes then
            violate t ~time Resume_conservation
              "job %d resumed claiming episode %d but %d pause(s) happened" job episode episodes;
          set job tenant (Started { granted = granted + budget; episodes })
      | Some p ->
          violate t ~time Resume_conservation
            "job %d resumed while %s (only a checkpointed job can resume)" job (phase_name p)
      | None -> violate t ~time Resume_conservation "job %d resumed but never submitted" job);
      debit t ~time ~tenant ~budget ~what:"resume grant"
  | Job_preempted { job; tenant = _ } -> (
      match phase job with
      | Some (Started _) -> ()
      | p -> job_violation Job_conservation job "preempted" p "admitted")
  | Job_finished { job; tenant; state; promotions } -> (
      match phase job with
      | Some (Started { granted; _ } | Checkpointed { granted; _ }) ->
          (* A checkpointed job may terminate without resuming (its episode
             budget ran out, or its refreshed deadline expired in the
             queue); either way the whole history's promotions are bounded
             by the accumulated grants. *)
          set job tenant (Terminal state);
          if promotions > granted then
            violate t ~time Budget_conservation "job %d used %d promotions against a grant of %d"
              job promotions granted
      | Some Admitted ->
          (* A queued job can expire at its deadline without ever starting;
             it must then have consumed nothing. *)
          set job tenant (Terminal state);
          if promotions <> 0 then
            violate t ~time Budget_conservation
              "job %d finished from the queue yet reports %d promotions" job promotions
      | p ->
          job_violation Job_conservation job (Printf.sprintf "finished (%s)" state) p "submitted")
  | Budget_refill { tenant; amount } ->
      Hashtbl.replace t.balance tenant
        (Option.value ~default:0 (Hashtbl.find_opt t.balance tenant) + amount)
  | Breaker_transition _ -> ()

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let time = t.last_time in
    Hashtbl.fold (fun id jp acc -> (id, jp) :: acc) t.jobs []
    |> List.sort compare
    |> List.iter (fun (id, (tenant, phase)) ->
           match phase with
           | Terminal _ -> ()
           | Checkpointed { episodes; _ } ->
               violate t ~time Resume_conservation
                 "job %d (tenant %d) checkpointed (episode %d) but never resumed or finished" id
                 tenant episodes
           | Submitted | Admitted | Started _ ->
               violate t ~time Job_conservation
                 "job %d (tenant %d) never terminated: still %s at end of run" id tenant
                 (phase_name phase))
  end

let events t = List.rev t.events

let violations t = List.rev t.kept
