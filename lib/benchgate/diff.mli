(** Regression diff between two {!Report.t} values: the perf gate's
    verdict.

    All metrics are deterministic costs (cycles, allocation words, event
    counts): lower is better. A metric that grew by more than [threshold]
    (relative; default 2%) is a {!Regressed} line and makes the verdict
    {!Fail}; one that shrank past the threshold is {!Improved} (still
    {!Pass}). Probes or metrics present on only one side —
    metric-set skew between an old baseline and a new suite — never fail
    the gate: they surface as {!Added} / {!Removed} warnings. *)

type status = Unchanged | Improved | Regressed | Added | Removed

type line = {
  probe : string;
  metric : string;  (** ["*"] for whole-probe Added/Removed lines *)
  old_v : float option;
  new_v : float option;
  delta_pct : float option;  (** [None] when either side is missing or old = 0 *)
  status : status;
}

type verdict = Pass | Warn | Fail

val status_name : status -> string

val verdict_name : verdict -> string

val compare :
  ?threshold:float -> old:Report.t -> new_:Report.t -> unit -> line list * verdict
(** Lines come out in the old report's probe order, new-only probes last;
    within a probe, old metric order then new-only metrics. *)

val exit_code : verdict -> int
(** [Fail -> 1], [Pass | Warn -> 0]: only regressions gate. *)

val render : ?threshold:float -> old:Report.t -> new_:Report.t -> line list -> verdict -> string
(** Human delta table (non-[Unchanged] lines, plus a one-line summary). *)
