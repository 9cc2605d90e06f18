(** Virtual-cycle cost model of the simulated 64-core machine.

    All constants are in clock cycles of the simulated 3.0 GHz machine (the
    paper's Xeon Platinum 8375C testbed). Constants quoted directly from the
    paper: a poll reads the TSC in ~50 cycles, a kernel-module heartbeat event
    costs 3800 cycles end to end, a heartbeat fires every 100 us, and spawning
    an OS-visible parallel task costs a few thousand cycles. *)

type t = {
  ghz : float;  (** simulated clock, used to convert us to cycles *)
  heartbeat_interval : int;  (** cycles between heartbeats (100 us default) *)
  poll_cost : int;  (** software poll: read TSC + compare (paper: ~50) *)
  promotion_branch_cost : int;
      (** latch-inserted call + conditional branch on the handler result *)
  chunk_transfer_cost : int;
      (** maintaining the residual chunk counter [R] across leaf-loop
          invocations (the cost HBC pays and TPAL does not, Sec. 6.3) *)
  closure_load_cost : int;
      (** loading live-ins/live-outs/iteration space from an LST context at
          loop-slice entry *)
  outline_call_cost : int;  (** calling an outlined loop function *)
  lst_store_cost : int;
      (** parent storing the child iteration space into the child context *)
  promotion_handler_cost : int;
      (** promotion: reify contexts, allocate task closures, push to deque *)
  deque_push_cost : int;
  deque_pop_cost : int;
  steal_attempt_cost : int;  (** failed remote probe (cache-line bounce) *)
  steal_success_cost : int;  (** successful steal incl. task migration *)
  join_slow_path_cost : int;
      (** synchronization when a promoted task was stolen (atomics) *)
  interrupt_delivery_cost : int;
      (** kernel-module IPI: user->kernel->user round trip (paper: 3800) *)
  rollforward_lookup_cost : int;  (** binary search of the rollforward table *)
  signal_send_cost : int;
      (** ping thread: issuing one POSIX signal to one worker *)
  signal_delivery_cost : int;
      (** ping thread: signal frame setup/teardown in the receiver *)
  omp_fork_cost : int;  (** entering a parallel region (waking the team) *)
  omp_join_cost : int;  (** barrier at region end *)
  omp_dispatch_cost : int;
      (** dynamic schedule: grabbing the next chunk from the shared queue *)
  omp_static_setup_cost : int;  (** static schedule per-thread bounds setup *)
  omp_task_spawn_cost : int;
      (** spawning a nested task/region (paper: a few thousand cycles) *)
  omp_dispatch_hold : int;
      (** exclusive occupancy of the dynamic-schedule shared counter per
          grab (cache-line ownership transfer): serializes fine-grained
          dynamic scheduling across the team *)
  dram_bytes_per_cycle : float;
      (** aggregate memory bandwidth of the simulated machine (see
          {!Engine.charge}); calibrated so bandwidth-bound kernels saturate at the
          paper's speedup levels *)
  idle_backoff : int;  (** cycles between steal rounds when everything fails *)
}

val paper : t
(** The paper's exact constants (100 us heartbeat at 3 GHz). Appropriate for
    full-size inputs; at container scale too few heartbeats fire per run. *)

val default : t
(** The calibrated preset used by all experiments: heartbeat-period-linked
    constants uniformly scaled by 1/10 so the beats-per-run and
    overhead-per-beat ratios match the paper at container-scale inputs
    (DESIGN.md, "Substitutions"). *)

val cycles_of_us : t -> float -> int
(** Convert microseconds of the simulated machine to cycles. *)

val us_of_cycles : t -> int -> float

val seconds_of_cycles : t -> int -> float
