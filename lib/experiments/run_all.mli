(** Entry points over the full figure set. *)

val figures : Figure.t list
(** Figures 4 through 16, in order. *)

val find : string -> Figure.t
(** Lookup by id ("fig4" .. "fig16").
    @raise Not_found otherwise. *)

val render_one : Harness.config -> Figure.t -> string
(** Render one figure, appending a validation warning when any run's output
    diverged from the sequential reference. *)

val campaign_summary : unit -> string
(** Journal reuse statistics and the quarantine list for the trials run so
    far; empty when there is nothing to report. *)

val exit_code : unit -> int
(** The exit status of a figure command, the ablations and the whole
    campaign, over the trials since the last {!Harness.clear_cache}: 2
    when any trial's output diverged from the sequential reference, else
    4 when any trial was quarantined as a crash, a deadlock or an
    invariant violation, else 0. A trial stopped by [--trial-budget] or
    [--wall-budget] (a timeout) leaves the status at 0. *)

val render_all : Harness.config -> string
(** Render every figure (each guarded against aborts) followed by the
    campaign summary. *)

val render_all_parallel : Harness.config -> domains:int -> string
(** Like {!render_all}, but trial simulations are computed concurrently
    across [domains] OCaml domains (figure-granular work stealing) in a
    warm phase, then replayed sequentially. Output — figure text,
    journal, quarantine, summary — is byte-identical to {!render_all}
    for the same configuration; only wall-clock time changes.
    [domains <= 1] is exactly {!render_all}. *)
