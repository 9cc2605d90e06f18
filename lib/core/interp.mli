(** The compiled-nest interpreter (the runtime of Sec. 5), shared by every
    scheduler backend.

    One functor owns loop-slice execution, leaf chunking and polling,
    adaptive chunking, the promotion handler (policy-chosen split, task
    creation, clone-optimized join), leftover tasks, the metered promotion
    gate, the checkpoint live-slice registry and the seeded scheduler bugs.
    It instantiates [Sched.Core.Make] over the backend itself. A driver
    ({!Executor} on the simulator, [Hb_parallel.Native_run] on OCaml 5
    domains) supplies only {!HOOKS} — what genuinely differs between
    machines — and keeps its own [run_program]. *)

exception Internal_error of string
(** A runtime invariant broke (a bug, not a user error). *)

(** Testing hook: a deliberately plantable scheduler bug, armed by the
    sanitizer tests and the fuzzer's forced-failure mode so the invariant
    checker can be shown to catch real scheduling mistakes. Never armed in
    normal operation. *)
type seeded_bug =
  | Duplicate_leftover
      (** the promotion handler pushes the leftover task twice, so its
          iterations execute twice (violates work conservation) *)
  | Lose_stolen_task
      (** one successfully stolen task is dropped on the floor (violates
          deque discipline / loses iterations; typically deadlocks). Only
          the simulator backend plants it — natively the run would hang. *)
  | Promote_innermost
      (** the promotion handler inverts the configured policy's direction
          (violates outer-loop-first) *)

val seeded_bug : seeded_bug option ref
(** The armed bug, read once per run by {!Make.create}. *)

val set_seeded_bug : seeded_bug option -> unit

(** What a backend supplies. Every hook is called per leaf batch, per
    latch, per beat or per promotion — never per iteration.

    A hook's [~worker] is the worker executing the calling task. The
    interpreter reads it once, when the task starts ([B.worker_id]), and
    passes it down: a task runs to completion on the worker that started
    it (joins help by running other tasks nested inside it, never by
    moving it), so a hook never needs to look the worker up itself. *)
module type HOOKS = sig
  module B : Sched.Backend_intf.BACKEND

  type t
  (** The driver's per-run state. *)

  val backend : t -> B.t

  val emit : t -> Obs.Trace.event -> unit
  (** Emit one event stamped with the calling worker and the backend's
      time. Must neither advance time nor consume randomness. *)

  val poll : t -> worker:int -> count_poll:bool -> bool
  (** The beat check at a promotion-ready point: true when a heartbeat is
      taken here. [count_poll] marks a real leaf poll; non-leaf latches
      only read the flag. *)

  val add_work : t -> worker:int -> int -> unit
  (** Body work outside any batch on [worker]: statements of non-leaf
      loops. *)

  val charge_slice_entry : t -> unit
  (** A loop-slice call: outlined-function call plus closure load. *)

  val charge_lst_store : t -> unit
  (** Storing a loop's bounds into its context before the slice call. *)

  val charge_serial : t -> worker:int -> work:int -> bytes:int -> unit
  (** A whole non-DOALL subtree, run serially on [worker]. *)

  val charge_batch : t -> worker:int -> work:int -> bytes:int -> chunked:bool -> polled:bool -> unit
  (** One leaf batch on [worker]: its body work and memory traffic, the poll and
      promotion branch when the batch ended in a poll ([polled]), and the
      chunking bookkeeping when the leaf is chunked ([chunked]; false for
      the every-iteration [No_chunking] mode). *)

  val charge_latch : t -> bytes:int -> unit
  (** A non-leaf DOALL latch: the promotion branch plus the iteration's
      own memory traffic. *)

  val charge_promotion : t -> unit
  (** The promotion handler itself. *)

  val charge_reduction : t -> int -> unit
  (** Combining one reduction half, in cycles. *)

  val combine_in_task : bool
  (** Where reduction halves combine: inside each spawned task after its
      slice (true), or on the promoting worker after the join, in spawn
      order (false; required when tasks run concurrently). *)
end

val gated_observer : Run_request.t -> bool ref * Obs.Trace.Sink.t
(** The sink a driver should emit into, and its gate. On resume the
    request's sink is muted until the gate opens at the verified pause
    boundary, so per-episode streams tile the uninterrupted stream exactly
    once; otherwise the gate starts open and the sink is the request's. *)

type machine = { rng_state : int64; work_cycles : int; clocks : int array; deques : int list array }
(** The backend-specific fields of a checkpoint, read at the pause
    boundary. *)

module Make (H : HOOKS) : sig
  type t

  val create : H.t -> Rt_config.t -> Run_request.t -> t
  (** Per-run interpreter state: the scheduler core over [H.backend], the
      adaptive-chunking tables, the promotion meter (the request's grant,
      or the first episode's on resume), the live-slice registry (armed
      only when the request pauses or resumes) and the armed seeded bug. *)

  val core : t -> Sched.Core.Make(H.B).t
  (** The scheduler core the interpreter runs on; the driver scavenges on
      it and marks the run finished. *)

  val promotions : t -> int
  (** Splits performed so far. *)

  val set_promo_left : t -> int -> unit
  (** Reset the metered promotion balance (a replayed regrant). *)

  val disable_promotions : t -> bool
  (** Veto every further split (a watchdog's last resort); false when they
      were already disabled. *)

  val exec_nest : t -> 'e Pipeline.program -> 'e -> 'e Ir.Nest.loop -> unit
  (** Run one nest of the program as the root loop-slice task on the
      calling worker. @raise Internal_error for a nest the program did not
      declare. *)

  val paused : t -> machine -> Run_request.t -> applied:int -> at_cycle:int -> Sim.Checkpoint_state.t
  (** The checkpoint of a run paused at [at_cycle]: the first episode's,
      or, on resume, the next episode's with [applied] (this episode's
      grant, see {!apply_grant}) appended to the regrant history. *)

  val resume_mismatch : t -> machine -> Sim.Checkpoint_state.t -> string option
  (** Re-derive the checkpoint at [ck]'s boundary and compare it byte for
      byte; [Some reason] on divergence. *)

  val apply_grant : t -> Run_request.t -> int
  (** Apply this episode's promotion grant past a verified boundary and
      return it for the regrant history ([-1]: none given, the remaining
      balance is kept). *)
end
