type mechanism = Software_polling | Interrupt_ping_thread | Interrupt_kernel_module

(* Policy types live in the backend-agnostic scheduler core; the equations
   keep the historical [Rt_config.Spawn] / [Rt_config.Outer_loop_first]
   constructors (and their Marshal representation) intact. *)
type leftover_mode = Sched.Policy.leftover_mode = Spawn | Inline

type promotion_policy = Sched.Policy.promotion_policy = Outer_loop_first | Innermost_first

type t = {
  cost : Sim.Cost_model.t;
  workers : int;
  mechanism : mechanism;
  chunk : Compiled.chunk_mode;
  ac_target_polls : int;
  ac_window : int;
  promotion : bool;
  force_promotion : bool;
  leftover : leftover_mode;
  policy : promotion_policy;
  chunk_transferring : bool;
  seed : int;
  watchdog_k : int;
}

let default =
  {
    cost = Sim.Cost_model.default;
    workers = 64;
    mechanism = Software_polling;
    chunk = Compiled.Adaptive;
    ac_target_polls = 8;
    ac_window = 2;
    promotion = true;
    force_promotion = false;
    leftover = Spawn;
    policy = Outer_loop_first;
    chunk_transferring = true;
    seed = 1;
    watchdog_k = 4;
  }

(* Content hash over every field that can change a run's *results* — half
   of the experiment journal's cache key (the other half is the
   Run_request signature, which covers the per-run fault plan and DNF
   cap). The record holds no closures, so Marshal is safe. *)
let signature t =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( t.cost,
            t.workers,
            t.mechanism,
            t.chunk,
            t.ac_target_polls,
            t.ac_window,
            t.promotion,
            t.force_promotion,
            t.leftover,
            t.policy,
            t.chunk_transferring,
            t.seed,
            t.watchdog_k )
          []))

let hbc = default

let hbc_kernel_module ~chunk =
  { default with mechanism = Interrupt_kernel_module; chunk = Compiled.Static chunk }

let hbc_ping_thread ~chunk =
  { default with mechanism = Interrupt_ping_thread; chunk = Compiled.Static chunk }

let tpal ~chunk =
  {
    default with
    mechanism = Interrupt_ping_thread;
    chunk = Compiled.Static chunk;
    leftover = Inline;
    force_promotion = false;
    policy = Outer_loop_first;
    chunk_transferring = false;
  }
