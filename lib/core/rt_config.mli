(** Runtime configuration for a heartbeat run. *)

type mechanism =
  | Software_polling  (** default: TSC polls at PRPPTs (Sec. 5.1) *)
  | Interrupt_ping_thread  (** POSIX-signal ping thread (Sec. 5.2) *)
  | Interrupt_kernel_module  (** hrtimer + IPI broadcast kernel module (Sec. 5.2) *)

type promotion_policy = Sched.Policy.promotion_policy =
  | Outer_loop_first
      (** the paper's policy: split the outermost loop with remaining
          iterations — coarsest tasks, best amortization (Sec. 2) *)
  | Innermost_first
      (** ablation: split the loop that received the heartbeat — finest
          tasks; shows why the paper's policy matters *)

type leftover_mode = Sched.Policy.leftover_mode =
  | Spawn  (** HBC: the leftover is a third parallel task with a full closure *)
  | Inline
      (** TPAL: the leftover lacks a complete closure, so it runs inline on
          the promoting task's critical path and can never be stolen as a
          third parallel task (Sec. 6.3); its loops still carry promotion
          points *)

type t = {
  cost : Sim.Cost_model.t;
  workers : int;
  mechanism : mechanism;
  chunk : Compiled.chunk_mode;  (** applied to every innermost DOALL loop *)
  ac_target_polls : int;  (** AC target polling count (paper sweeps 1..20) *)
  ac_window : int;  (** AC sliding-window size in heartbeats *)
  promotion : bool;  (** false: measure overheads only (Figs. 7, 8) *)
  force_promotion : bool;
      (** testing mode: treat every promotion-ready point as if a heartbeat
          had fired — the maximal-promotion schedule, exercising every
          loop-slice and leftover path; used by the differential tests *)
  leftover : leftover_mode;
  policy : promotion_policy;
  chunk_transferring : bool;
      (** carry the residual chunk counter across leaf-loop invocations
          (Sec. 3.2). HBC does; TPAL's manual chunking resets per invocation,
          trading heartbeat responsiveness inside short loops for zero
          bookkeeping on the critical path (the Sec. 6.3 spmv gap). *)
  seed : int;
  watchdog_k : int;
      (** starvation watchdog: consecutive missed/undelivered beats on a
          busy worker before its interrupt mechanism is downgraded to
          software polling (only armed while fault injection is active) *)
}
(** Per-run concerns — DNF cap, trial watchdogs, fault plan, trace sink —
    live in {!Run_request.t}, not here: this record describes the runtime
    being measured, a request describes one observed run of it. *)

val default : t
(** 64 workers, software polling, adaptive chunking, target polls and window
    of 8 (Sec. 6.6), promotions on. *)

val hbc : t
(** Alias of {!default}: the configuration the paper calls "HBC". *)

val hbc_kernel_module : chunk:int -> t
(** HBC under the kernel-module interrupt mechanism with a static chunk
    (Fig. 9). *)

val hbc_ping_thread : chunk:int -> t
(** HBC under the ping-thread interrupt mechanism with a static chunk
    (Fig. 9). *)

val tpal : chunk:int -> t
(** TPAL's manual runtime: ping-thread interrupts, static per-benchmark
    chunk size, inline leftover. *)

val signature : t -> string
(** Hex content hash of every result-affecting field (including the seed);
    the experiment journal keys cached trials on it combined with
    {!Run_request.signature}, so any configuration change invalidates
    stale entries. *)
