(** Heartbeat scheduling for recursive fork-join programs — the extension
    the paper leaves as future work ("HBC targets loops and not recursive
    functions", Sec. 6.1), implemented per the original heartbeat-scheduling
    model (Acar et al., PLDI'18): every [fork2] is {e latent} parallelism;
    the runtime runs both branches sequentially unless a heartbeat has
    elapsed, in which case the second branch is promoted into a stealable
    task. Task creation is therefore amortized against at least one
    heartbeat interval of useful work, independent of the recursion's
    granularity.

    Runs on the same simulated machine, heartbeat mechanisms and scheduler
    as the loop runtime: promoted branches are tasks of the shared
    work-stealing core ([Sched.Core.Make (Sim_backend)]), so deques, the
    steal protocol, wakeups, join help and cost charging are the loop
    interpreter's own. *)

type ctx
(** Execution context handed to the recursive computation. *)

val fork2 : ctx -> (ctx -> 'a) -> (ctx -> 'b) -> 'a * 'b
(** Evaluate two branches as a (latently parallel) fork-join pair. *)

val advance : ctx -> int -> unit
(** Consume cycles of leaf work (with bytes use {!advance_bytes}). *)

val advance_bytes : ctx -> compute:int -> bytes:int -> unit

type result = {
  makespan : int;
  work_cycles : int;
  metrics : Sim.Metrics.t;  (** [promotions] counts the promoted forks *)
  sequential_forks : int;  (** forks whose second branch ran inline *)
}

val run : ?cfg:Rt_config.t -> (ctx -> unit) -> result
(** Execute a recursive computation under heartbeat scheduling; worker 0
    runs the root, promotions feed the work-stealing pool. Every fork is a
    promotion-ready point; one in every 16 checks for a beat under the
    config's mechanism (any of the three), like a PRPPT poll. *)
