type t = {
  backend : Sched.Policy.backend_kind;
  max_cycles : int option;
  cycle_budget : int option;
  guard : (unit -> string option) option;
  fault_plan : Sim.Fault_plan.t option;
  trace : Obs.Trace.Sink.t;
  sanitize : bool;
  fuzz_case : string option;
  deadline : int option;
  promotion_budget : int option;
  pause_at : int option;
  resume_from : Sim.Checkpoint_state.t option;
}

let default =
  {
    backend = Sched.Policy.Sim;
    max_cycles = None;
    cycle_budget = None;
    guard = None;
    fault_plan = None;
    trace = Obs.Trace.Sink.null;
    sanitize = false;
    fuzz_case = None;
    deadline = None;
    promotion_budget = None;
    pause_at = None;
    resume_from = None;
  }

let make ?(backend = Sched.Policy.Sim) ?max_cycles ?cycle_budget ?guard ?fault_plan
    ?(trace = Obs.Trace.Sink.null) ?(sanitize = false) ?fuzz_case ?deadline
    ?promotion_budget ?pause_at ?resume_from () =
  {
    backend;
    max_cycles;
    cycle_budget;
    guard;
    fault_plan;
    trace;
    sanitize;
    fuzz_case;
    deadline;
    promotion_budget;
    pause_at;
    resume_from;
  }

let signature t =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( (* string, not the variant: byte-stable across constructor
               reorderings *)
            Sched.Policy.backend_kind_to_string t.backend,
            t.max_cycles,
            t.fault_plan,
            Obs.Trace.Sink.captures t.trace,
            t.sanitize,
            t.fuzz_case,
            (* Placeholders where the serve-mode tenant and priority were
               hashed: campaign journal keys of every non-serving request
               must not move. *)
            (None : int option),
            t.deadline,
            0,
            t.promotion_budget,
            t.pause_at,
            (* The checkpoint in its byte-stable codec form, not the record:
               Marshal over the record would hash physical structure, the
               codec string hashes content. *)
            Option.map Sim.Checkpoint_state.to_string t.resume_from )
          []))
