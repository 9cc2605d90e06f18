(** Shared machinery for the per-figure experiments: configuration, cached
    and journaled runs, per-trial watchdogs, output validation against the
    sequential reference, and geomean summaries.

    Every run is a {e trial}: it is keyed by a content hash of its full
    configuration (benchmark, tag, scale, workers, seed, executor-config
    signature), consults the in-memory cache and the optional on-disk
    {!Checkpoint} journal before computing, is wrapped in the
    {!Trial_error} taxonomy instead of raising, retries transient failures
    with exponential backoff, and quarantines trials that keep failing so
    one bad run cannot sink a campaign. *)

type config = {
  scale : float;  (** input-size multiplier (1.0 = the documented defaults) *)
  workers : int;  (** simulated cores (paper: 64) *)
  seed : int;
  verbose : bool;
  trial_budget : int option;
      (** per-trial virtual-cycle watchdog; a trial past the budget aborts
          with {!Trial_error.Timeout} instead of livelocking the campaign *)
  wall_budget : float option;
      (** per-trial wall-clock guard in seconds, polled inside the engine *)
  max_retries : int;  (** bounded retries for transient (crash) failures *)
  retry_backoff : float;
      (** base backoff sleep in seconds, doubled per retry (0 disables) *)
}

val default_config : config

type outcome = {
  result : Sim.Run_result.t;
  speedup : float;
  valid : bool;
  error : Trial_error.t option;
      (** [Some _] when the trial failed (placeholder result) or its output
          mismatched the reference *)
}

val set_journal : Checkpoint.t option -> unit
(** Install (or remove) the campaign journal consulted and appended by every
    trial. *)

val journal : unit -> Checkpoint.t option

val trial :
  config ->
  bench:string ->
  tag:string ->
  signature:string ->
  (unit -> Sim.Run_result.t) ->
  (Sim.Run_result.t, Trial_error.t) result
(** Run one journaled, quarantine-aware, retried trial. [signature] must be
    a content hash/string covering every result-affecting knob not already
    in [config] (use {!Sched_run.signature}). Figures with custom executors
    call this directly so they checkpoint and degrade like the standard
    runs. *)

val guarded : config -> Hbc_core.Run_request.t -> Hbc_core.Run_request.t
(** Arm the campaign's trial watchdogs (cycle budget, wall-clock guard) on a
    run request; explicit per-request budgets and guards win. Call inside
    the trial's compute closure so each retry gets a fresh wall deadline.
    Does not change {!Hbc_core.Run_request.signature}. *)

val baseline : config -> Workloads.Registry.entry -> Sim.Run_result.t
(** Sequential reference run (cached per benchmark and scale). On trial
    failure returns a zero-work placeholder, degrading dependent speedups
    to 0 instead of aborting. *)

val run :
  ?request:Hbc_core.Run_request.t ->
  ?tag:string ->
  config ->
  Sched_run.engine ->
  Workloads.Registry.entry ->
  outcome
(** Run [entry] under [engine] with the campaign's workers and seed
    ({!Sched_run.with_machine}). [request] carries per-run knobs (fault
    plan, cycle cap, trace sink) and is armed with the campaign watchdogs
    via {!guarded}. Results are cached and journaled under [tag] (default
    {!Sched_run.family}: hbc, tpal, omp); the trial key covers the engine
    and request signatures, so e.g. traced and untraced runs never
    alias. *)

val dnf_cap : Sim.Run_result.t -> int
(** Virtual-time cap marking a run as DNF: twice the sequential time — a
    parallel run slower than that reproduces the paper's
    did-not-finish-in-2-hours outcomes. *)

val validation_failures : unit -> (string * string) list
(** (benchmark, tag) pairs whose fingerprint diverged from the reference. *)

val quarantined : unit -> (string * Trial_error.t) list
(** Trials that failed definitively this campaign (label, error), sorted;
    rendered by the campaign summary instead of aborting [run-all]. *)

val speedup_cell : ?decimals:int -> outcome -> string
(** ["12.3"], ["DNF"], or ["—(timeout)"] — failed and did-not-finish trials
    render explicitly instead of as a bogus number. *)

val metric_cell : outcome -> (Sim.Run_result.t -> string) -> string
(** Render a metric from a successful trial's result, or the error cell. *)

val speedup_opt : outcome -> float option
(** [None] for failed or DNF trials — the explicit exclusion used by
    geomeans. *)

val geomean_row : label:string -> outcome list list -> string list
(** Build a geomean summary row from outcome columns; excluded (failed/DNF)
    trials are counted in the cell rather than silently averaged. *)

val clear_cache : unit -> unit
(** Reset the in-memory cache, quarantine, and validation failures (the
    journal, if any, is untouched). *)

val begin_warm : unit -> unit
(** Enter the warm phase of a domains-parallel campaign: until
    {!end_warm}, every trial computes (or reuses) its result in a
    mutex-guarded warm table shared across domains, touching neither the
    journal nor the sequential cache/quarantine state. *)

val end_warm : unit -> unit
(** Leave the warm phase and discard warm-phase bookkeeping (cache,
    quarantine, validation failures — all filled in nondeterministic
    domain order). The warm table itself is kept: the sequential replay
    pass that follows journals and caches each warm result exactly as a
    fresh compute would, making the campaign's journal and figure output
    byte-identical to a sequential run's. *)

val warm_results : unit -> int
(** Number of results parked in the warm table (introspection). *)
