(** Per-run knobs, separated from the runtime configuration.

    {!Rt_config.t} describes the {e runtime being measured} — mechanism,
    chunking, costs, seed. A [Run_request.t] describes how {e one run} of
    it is driven and observed: DNF cap, trial watchdogs, fault plan, and
    the trace sink events are recorded into. Every executor front end
    ({!Executor}, [Baselines.Openmp], [Baselines.Serial_exec]) takes the
    same record through one labelled constructor, so the harness and tests
    no longer thread parallel optional arguments.

    Which front end honours which field: {!Executor} honours all of them.
    [Baselines.Openmp] shares its cap envelope ({!Sim_backend.supervise}:
    [max_cycles], [deadline], [cycle_budget], [guard]) and its [trace],
    but ignores [fault_plan], [promotion_budget] and pause/resume.
    [Baselines.Serial_exec] ignores the request. The domains runner
    honours [trace], [sanitize], [promotion_budget] and portable
    [fault_plan]s, ignores the virtual-cycle caps and refuses
    [pause_at]/[resume_from]. *)

type t = {
  backend : Sched.Policy.backend_kind;
      (** which scheduler backend executes the run: [Sim] (the default),
          the virtual-time engine, or [Domains], real OCaml 5 domains via
          the native runner. Dispatched by the [Sched_run] facade;
          signature-keyed — a native trial never aliases a simulated one. *)
  max_cycles : int option;
      (** DNF cap on virtual time (the paper's did-not-finish semantics) *)
  cycle_budget : int option;
      (** per-trial virtual-cycle watchdog: aborts with
          [Run_result.Budget_exceeded] instead of letting a livelock spin
          forever. Unlike [max_cycles], hitting it is a trial error. *)
  guard : (unit -> string option) option;
      (** external abort hook polled during the run (wall-clock deadlines);
          [Some reason] yields a [Guard_aborted] termination *)
  fault_plan : Sim.Fault_plan.t option;
      (** opt-in deterministic fault injection; [None] (and any zero plan)
          leaves the run bit-identical to the fault-free runtime *)
  trace : Obs.Trace.Sink.t;
      (** where the run emits its trace events; {!Obs.Trace.Sink.null}
          (the default) records nothing and costs nothing *)
  sanitize : bool;
      (** declarative marker: the run's sink includes an invariant
          sanitizer. The executor treats it as any other sink; the flag
          exists so sanitized and unsanitized runs never alias in the
          journal (a sanitized run observes payload events an unsanitized
          run's journal entry would claim it had not) *)
  fuzz_case : string option;
      (** content hash of the fuzz case that produced this request, when
          the run is a fuzzer trial; journal-keyed like [sanitize] *)
  deadline : int option;
      (** per-job deadline in virtual cycles: a second DNF-style cap (the
          effective cap is the min of [max_cycles] and [deadline]); the
          server maps a deadline-cut run to [Deadline_exceeded] *)
  promotion_budget : int option;
      (** metered promotion grant: after this many promotions the executor
          stops splitting and degrades gracefully to serial execution of
          the remaining work. [None] is unmetered. *)
  pause_at : int option;
      (** cooperative preemption boundary in virtual cycles: the run stops
          at the first event at or past this time and terminates with
          [Run_result.Paused] carrying a {!Sim.Checkpoint_state} (unless it
          finishes first). Simulator only: the domains runner refuses it. *)
  resume_from : Sim.Checkpoint_state.t option;
      (** resume a previously paused run: the executor replays the job from
          cycle 0 with trace emission muted up to the checkpoint boundary,
          byte-verifies the re-derived checkpoint against this one, then
          continues live. Divergence aborts with [Guard_aborted]. Simulator
          only: the domains runner refuses it. *)
}

val default : t
(** No caps, no watchdogs, no faults, null sink. *)

val make :
  ?backend:Sched.Policy.backend_kind ->
  ?max_cycles:int ->
  ?cycle_budget:int ->
  ?guard:(unit -> string option) ->
  ?fault_plan:Sim.Fault_plan.t ->
  ?trace:Obs.Trace.Sink.t ->
  ?sanitize:bool ->
  ?fuzz_case:string ->
  ?deadline:int ->
  ?promotion_budget:int ->
  ?pause_at:int ->
  ?resume_from:Sim.Checkpoint_state.t ->
  unit ->
  t

val signature : t -> string
(** Hex content hash of the request's result-affecting fields — the
    backend, the fault plan, the DNF cap, whether the sink captures records (a traced trial
    carries a trace in the journal; an untraced one must not alias it),
    the [sanitize] bit, the fuzz-case hash, the deadline and the
    promotion budget (each changes what a run produces, so such entries
    never alias plain trials). [pause_at] and the [resume_from] checkpoint
    (hashed via its byte-stable codec) are included: a paused episode and
    an uninterrupted run of the same job produce different results and
    must never alias. Budgets, guards, and the sink closure
    itself are excluded: they never change a completed run's outcome.
    Combined with {!Rt_config.signature} to key journal entries. *)
