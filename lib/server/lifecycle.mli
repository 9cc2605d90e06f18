(** The job server's lifecycle: its events and their conservation checks.

    Every admission, start, pause, resume, termination, breaker move and
    meter credit the {!Server} decides is one {!event}, recorded with its
    virtual time. Recording also replays it against the serving
    invariants, so a finished run proves:

    - {b clock sanity}: record times never go backwards;
    - {b job conservation}: every submitted job reaches exactly one
      terminal state — shed at submission, or a single [Job_finished]
      accounting — and the lifecycle transitions
      (submitted → admitted → started → finished) are respected;
    - {b budget conservation}: no tenant's metered promotion balance goes
      negative across [Budget_refill]/[Job_started]/[Job_resumed] grants,
      and no job reports more promotions than its accumulated grants;
    - {b resume conservation}: pause/resume episodes alternate correctly —
      only a started job checkpoints, only a checkpointed job resumes,
      each [Job_resumed] claims exactly the number of pauses that
      happened, and no job is left checkpointed at the end of the run.
      With the per-job scheduler sanitizer (whose sink persists across
      episodes), the iteration space of a preempted job is proven to
      execute exactly once across all its episodes. *)

type event =
  | Job_submitted of { job : int; tenant : int }
      (** a job arrived at the admission queue *)
  | Job_admitted of { job : int; tenant : int; queued : int }
      (** the job entered the bounded queue; [queued] is the depth after *)
  | Job_shed of { job : int; tenant : int; reason : string }
      (** explicit load shedding at submission ("queue-full",
          "breaker-open", ...); a shed job is terminal and never silent *)
  | Job_started of { job : int; tenant : int; budget : int }
      (** the job left the queue and took pool workers; [budget] is the
          promotion grant metered from its tenant's balance *)
  | Job_preempted of { job : int; tenant : int }
      (** the deadline watchdog cut the job mid-run; its pool share is
          reclaimed and partial results are journaled *)
  | Job_checkpointed of { job : int; tenant : int; at_cycle : int }
      (** the job was cooperatively paused at engine boundary [at_cycle]
          and its checkpoint saved; it will re-enter admission and resume
          (pause-and-requeue preemption, not a cancel) *)
  | Job_resumed of { job : int; tenant : int; episode : int; budget : int }
      (** a checkpointed job re-started from its saved state; [episode]
          counts completed pause/resume episodes before this one (first
          resume is episode 1) and [budget] is the fresh promotion grant
          metered for the new episode (debited like a [Job_started]
          grant) *)
  | Job_finished of { job : int; tenant : int; state : string; promotions : int }
      (** terminal accounting for a started job: [state] is "completed",
          "deadline" or "failed-*"; [promotions] is what it actually used
          (checked against the accumulated grants) *)
  | Breaker_transition of { tenant : int; from_state : string; to_state : string }
      (** a tenant circuit breaker moved (closed/open/half-open) *)
  | Budget_refill of { tenant : int; amount : int }
      (** the promotion meter credited [amount] to the tenant's balance *)

val event_name : event -> string
(** Stable short name ("job-submitted", ..., "budget-refill"), used by the
    trace export. *)

type invariant = Clock_sanity | Job_conservation | Budget_conservation | Resume_conservation

val invariant_name : invariant -> string
(** Stable kebab-case name ("clock-sanity", "job-conservation", ...). *)

type violation = {
  invariant : invariant;
  time : int;  (** time of the offending event (last seen time for end-of-run checks) *)
  message : string;
}

type t

val create : unit -> t

val record : t -> time:int -> event -> unit
(** Append the event and check it against the invariants. *)

val finish : t -> unit
(** End-of-run checks: every job terminated and none is left
    checkpointed. Idempotent. *)

val events : t -> (int * event) list
(** Every recorded event with its time, in recording order. *)

val violations : t -> violation list
(** Oldest first. *)
