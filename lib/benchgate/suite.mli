(** The repo's standard perf-gate suite.

    Micro probes cover the runtime primitives whose costs the cost model
    abstracts (deque, rng, perfect-hash leftover table, adaptive chunking)
    plus the measured hot paths of the simulator and the native backend
    (trace emission into the null-sink fast path, the engine's
    event-dispatch loop, checkpoint capture, native dispatch and its
    untraced hooks, overhead attribution). Macro probes run one tiny-scale
    simulation per figure family of the paper's evaluation and record its
    deterministic scheduler counters.

    Probe names are stable identifiers: [bench/baseline.json] is keyed on
    them, so renaming one shows up as metric-set skew (warn), not silently
    as a pass. *)

val tiny_scale : float

val tiny_workers : int

val micro : unit -> Report.probe list

val macro : unit -> Report.probe list
(** One tiny-scale run per figure family, then the event-engine scaling
    gate (a fixed-iteration synthetic engine workload at P ∈ {16, 64, 256,
    1024} simulated cores, whose events dispatched, work cycles, makespan
    and alloc words gate like any other metric), then the serving probes. *)

val all : unit -> Report.probe list
(** [micro () @ macro ()]. *)

val report :
  ?notes:(string * string) list -> ?probes:Report.probe list -> label:string -> unit -> Report.t
(** Build a report from [probes] (default: the full {!all} suite);
    scale/workers provenance is merged into [notes]. Pass an explicit
    probe list to emit a partial-suite report (CI's split micro/macro
    steps). *)
