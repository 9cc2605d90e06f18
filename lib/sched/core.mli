(** The backend-agnostic scheduler core (deque discipline, steal protocol,
    joins) as a functor over {!Backend_intf.BACKEND}.

    [Make (Sim_backend)] is the virtual-time executor's scheduler —
    byte-identical to the historical in-executor code, pinned by golden
    tests. [Make (Domains_backend)] is the same scheduler on real OCaml 5
    domains. Both instantiations emit the same capture-gated trace events
    at the same operation boundaries, so {!Sanitizer.Checker} validates
    either stream with the identical invariant set. *)

module Make (B : Backend_intf.BACKEND) : sig
  type t

  type join
  (** A promotion's join: a pending count plus the owning worker. The
      owner blocks in {!join_wait}, helping (pop own deque, then steal)
      until every spawned task has called {!finish_join}. *)

  val create : B.t -> t

  val backend : t -> B.t

  val depth : t -> int array
  (** Per-worker task-nesting depth, for diagnostics. Only the core writes
      it: {!run_task} per task and {!root} for the driver. *)

  val root : t -> (unit -> unit) -> unit
  (** [root core f] runs the driver [f] on worker 0 at task depth 1 with
      its busy flag set, so tasks [f] runs inline or while joining never
      clear the flag; both are cleared when [f] returns. *)

  val finished : t -> bool

  val set_finished : t -> unit
  (** Signal scavenging workers to exit once their deques are dry. *)

  val next_task_id : t -> int
  (** Serial of the most recently created task (checkpoint capture). *)

  val mk_task : t -> (unit -> unit) -> Task.t

  val push_task : t -> Task.t -> unit
  (** Push onto the calling worker's deque bottom, emit the spawn events,
      charge the push cost, and wake one parked worker. *)

  val run_task : t -> Task.t -> unit

  val try_steal : t -> Task.t option
  (** One steal round: probe the last-pusher deque first (affinity), then
      up to 8 random victims. *)

  val new_join : t -> join
  (** A join owned by the calling worker, with no pending tasks yet. *)

  val add_pending : join -> unit

  val join_pending : join -> int

  val finish_join : t -> join -> unit

  val join_wait : t -> join -> unit

  val scavenge : t -> unit
  (** A non-driver worker's life: pop / steal / idle until {!set_finished}. *)
end
