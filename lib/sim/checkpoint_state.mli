(** Serializable pause-boundary state of a run.

    Captured by the executor's pause boundary, an engine callback that
    fires before any event at or past its cycle: the remaining iteration
    ranges of every live slice (in the paper's leftover [lo+1] resume
    representation), per-worker deque contents as shadow-replayable task
    identities, per-worker clocks, the engine RNG word, and the
    cycle/promotion budget consumed so far.

    Effect continuations cannot be serialized, so resuming does not restore
    from this record. Instead the executor re-runs the job from cycle 0 —
    runs are pure functions of the seed — and checks that the re-derived
    checkpoint at the same boundary is byte-identical before continuing past
    it ({!equal}). The codec is byte-stable: equal states give equal
    {!to_string} output, so a {!digest} identifies a checkpoint in journals
    and WALs. *)

type slice = {
  sl_worker : int;  (** worker whose stack holds the slice *)
  sl_task : int;  (** task identity (as in the trace / shadow deques) *)
  sl_nest : string;  (** source nest the slice belongs to *)
  sl_lo : int;  (** next iteration to run *)
  sl_hi : int;  (** exclusive upper bound of the remaining range *)
}

type t = {
  at_cycle : int;  (** pause boundary (absolute virtual time) *)
  episode : int;  (** number of completed pause/resume episodes before this *)
  rng_state : int64;  (** engine RNG word at the boundary *)
  next_task_id : int;  (** task-id counter at the boundary *)
  work_cycles : int;  (** body work executed so far *)
  promotions_used : int;  (** promotions consumed so far (all episodes) *)
  granted : int option;  (** promotion grant at cycle 0 ([None] = unmetered) *)
  regrants : (int * int) list;
      (** grant history at past resume boundaries, oldest first: each
          [(cycle, grant)] says the promotion budget was reset to [grant]
          when the run resumed past the boundary at [cycle] ([-1] = kept
          the remaining balance). A replay re-applies these so metered
          promotion decisions reproduce exactly across many episodes. *)
  clocks : int array;  (** per-worker virtual clocks *)
  deques : int list array;  (** per-worker deque task ids, oldest first *)
  slices : slice list;  (** live slices with their remaining ranges *)
}

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

val to_string : t -> string
(** Byte-stable serialization: structurally equal states produce identical
    strings (deterministic field order, canonical number formatting). *)

val of_string : string -> (t, string) result

val equal : t -> t -> bool
(** Byte equality of {!to_string} — the resume-divergence check. *)

val digest : t -> string
(** Content hash of {!to_string} (hex MD5). *)

val remaining_iterations : t -> int
(** Total iterations still owed by live slices. *)

val describe : t -> string
(** One-line human summary for logs and decision journals. *)
