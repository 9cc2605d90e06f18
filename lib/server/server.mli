(** Multi-tenant heartbeat job server over the virtual-time engine.

    A seeded stream of jobs from N tenants — each tenant an open-loop
    {!Arrival.process} over registry workloads — shares one simulated pool
    of workers. The server is itself a deterministic discrete-event
    simulation: admission, fairness, metering, breaker and deadline
    decisions all happen at virtual times, and each started job's service
    time is the makespan of a real inner {!Hbc_core.Executor} run on the
    job's slice of the pool (so deadlines are enforced by the engine's own
    cycle-cap watchdogs, per job, and one job's budget exhaustion can
    never terminate a co-scheduled job).

    Robustness behaviours, all explicit and typed:
    - a full bounded queue sheds at submission ([Rejected "queue-full"]);
    - a tenant tripping its {!Breaker} is quarantined
      ([Rejected "breaker-open"]) instead of stalling the pool;
    - under the default [Cancel] preemption policy a job passing its
      deadline is preempted ([Deadline_exceeded]) with partial results
      journaled and its pool share reclaimed;
    - under [Pause_and_requeue] the deadline draw becomes a per-episode
      compute quantum: the job is cooperatively paused at the quantum
      boundary, its {!Sim.Checkpoint_state} saved, its unconsumed grant
      refunded to the meter, and it re-enters admission with a refreshed
      deadline; the resumed episode continues from the checkpoint (replay
      with a muted trace prefix, byte-verified at the boundary) so a
      completed job's fingerprint is byte-identical to an uninterrupted
      run. Breaker-quarantined submissions are deferred past the cooldown
      instead of shed. After [max_preempts] pauses the final episode runs
      against a hard inner deadline and terminates.
    - promotion opportunities are metered per tenant ({!Meter}), and an
      exhausted grant degrades the job gracefully to serial execution.

    Every decision is recorded as a {!Lifecycle} event (and mirrored in a
    textual decision journal for byte-identity tests); recording checks
    job, budget and resume conservation. With [sanitize] each job also
    carries a {!Sanitizer.Checker} — persistent across pause/resume
    episodes — for the scheduler invariants.

    With [wal = Some path] the decision journal is a write-ahead log:
    every line is flushed to disk before the next decision is taken. The
    campaign being a deterministic function of the config, crash recovery
    re-runs it from the start, byte-verifies every regenerated line
    against the committed prefix (raising {!Wal} on divergence), drops a
    torn trailing record, and appends only past the verified prefix — so
    a killed serve process resumes with byte-identical subsequent
    decisions and zero lost or duplicated jobs. *)

type preempt_policy =
  | Cancel  (** deadline kills the job; partial results journaled *)
  | Pause_and_requeue
      (** deadline quantum pauses the job at an engine boundary; it
          checkpoints, re-enters admission and later resumes *)

val preempt_name : preempt_policy -> string
(** "cancel" / "pause" — stable CLI and WAL-header names. *)

val preempt_of_string : string -> preempt_policy option

exception Killed
(** Raised by the [wal_kill_after] crash-injection hook after tearing the
    in-flight WAL record — the simulated power cut for recovery tests. *)

exception Wal of string
(** WAL recovery failure: header mismatch (the log belongs to a different
    campaign) or replay divergence against a committed line. *)

type tenant_spec = {
  weight : int;  (** fair-queuing and meter weight (>= 1) *)
  arrival : Arrival.process;
  jobs : int;
  workloads : string list;  (** registry names a job is drawn from *)
  scale : float;
  workers_wanted : int;  (** pool share per job (clamped to the pool) *)
  deadline : (int * int) option;
      (** per-job deadline range, in cycles relative to submission; under
          [Pause_and_requeue] the same draw is the per-episode quantum *)
  cycle_budget : (int * int) option;
      (** per-job livelock watchdog range (inner cycles); hitting it is a
          structural failure, unlike a deadline miss *)
  fault_plan : Sim.Fault_plan.t option;  (** a misbehaving tenant *)
  promotion_want : int;  (** promotion grant requested per job *)
  priority : int;  (** within-tenant queue ordering (higher first) *)
}

val tenant_default : tenant_spec

type config = {
  tenants : tenant_spec array;
  pool : int;  (** simulated workers shared by all jobs (>= 1) *)
  queue_capacity : int;  (** 0 is legal: everything sheds *)
  seed : int;
  service : Sched_run.engine;
      (** the engine every job runs under; each job sets its own workers
          and seed ({!Sched_run.with_machine}). Its {!Sched_run.family}
          names the service in the WAL header and the CLI summary. *)
  breaker : Breaker.config;
  meter : Meter.config;
  sanitize : bool;  (** per-job scheduler invariant checkers *)
  verify : bool;  (** differential-check completed jobs against the serial reference *)
  preempt : preempt_policy;  (** what a deadline does to a running job *)
  max_preempts : int;
      (** pause/resume episodes (and breaker deferrals) allowed per job
          before the final episode runs against a hard deadline *)
  wal : string option;  (** write the decision journal through a WAL file *)
  wal_kill_after : int option;
      (** crash-injection: after this many WAL appends, tear the next
          record mid-write and raise {!Killed} *)
}

val default_config : config
(** 8-worker pool, 16-deep queue, HBC service, no tenants, [Cancel]
    preemption, no WAL. *)

type outcome =
  | Completed
  | Deadline_exceeded  (** preempted at its deadline (or expired while queued) *)
  | Rejected of string  (** shed at submission: "queue-full" or "breaker-open" *)
  | Failed of string  (** structural: "budget", "guard:*", "crash:*", "mismatch", "invariant" *)

val outcome_name : outcome -> string

type job_report = {
  job : int;
  tenant : int;
  workload : string;
  submit_time : int;
  start_time : int option;  (** None: shed, or expired while queued *)
  finish_time : int;
  outcome : outcome;
  granted : int;  (** metered promotion grants, summed across episodes *)
  promotions : int;  (** promotions actually used (<= granted) *)
  service_cycles : int option;  (** total inner compute across episodes *)
  sojourn : int option;  (** finish - submit, for admitted jobs *)
  work_cycles : int;
  fingerprint : float option;
  mismatch : bool;  (** verify-mode differential failure *)
  episodes : int;  (** completed pause/resume episodes (0: never paused) *)
}

type stats = {
  submitted : int;
  admitted : int;
  shed : int;
  completed : int;
  deadline_exceeded : int;
  failed : int;
  checkpointed : int;  (** pause events across all jobs *)
  resumed : int;  (** resume dispatches across all jobs *)
  sojourn_p50 : float;  (** over completed jobs, in cycles *)
  sojourn_p95 : float;
  sojourn_p99 : float;
  goodput : float;  (** completed work cycles per server cycle *)
  makespan : int;
  breaker_opens : int;
}

type violation = {
  invariant : string;  (** stable invariant name, e.g. "job-conservation" *)
  time : int;
  message : string;
}
(** A {!Lifecycle} or per-job {!Sanitizer.Checker} violation. *)

type result = {
  reports : job_report list;  (** in job-id (submission) order *)
  stats : stats;
  decisions : string;
      (** textual decision journal, one line per admit/shed/start/
          checkpoint/resume/finish/breaker/refill — byte-identical across
          equal-seed runs, including WAL-recovered ones *)
  events : (int * Lifecycle.event) list;
      (** every lifecycle event with its time, in decision order *)
  violations : (int option * violation) list;
      (** (job, violation); [None] is the server's own lifecycle check,
          which runs whether or not [sanitize] is set *)
  wal_replayed : int;
      (** committed WAL lines replayed (and byte-verified) before any new
          decision was appended; 0 on a fresh log or without a WAL *)
}

val run : config -> result
(** Deterministic: equal configs (same seed) give equal results, byte for
    byte including {!result.decisions} — and a run recovered from a
    partial WAL produces the same bytes as an uninterrupted one.
    @raise Invalid_argument on an empty pool or a tenant with no
    workloads.
    @raise Wal on WAL header mismatch or replay divergence.
    @raise Killed from the [wal_kill_after] hook. *)

val summary : result -> string
(** One line of counts and tail latencies for CLIs and smoke tests. *)
