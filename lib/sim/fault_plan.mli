(** Declarative, seed-deterministic fault plans.

    A plan describes {e what can go wrong} during a run: heartbeat
    deliveries dropped or jittered (modelling the ping thread's up-to-45%%
    signal loss and kernel-module interrupt latency under OS noise), steal
    attempts that fail in bursts (CAS contention on a crowded deque),
    per-worker stall windows (OS preemption of a core), and suppressed
    parked-worker wakeup signals (a lost futex wake).

    Plans are pure data; {!Fault_injector} turns one into a stream of
    per-worker decisions driven off {!Sim_rng}, so identical plans produce
    identical fault schedules. The cross-cutting contract of the whole layer
    is: a fault plan may change {e performance}, never {e results} — every
    executor output under any plan must equal the sequential reference.

    {b Portability.} Most kinds are backend-portable: the OCaml 5 domains
    backend draws the same per-worker decision streams from [(seed, P)], so
    a native chaos run is reproducible too. Two knobs are simulator-only
    because they are denominated in virtual-time cycles: [beat_jitter]
    (cycle-granular delivery delay) and a [stall_prob] whose window is given
    only in [stall_cycles] (native stalls are counted in polls via
    [stall_polls]). {!simulator_only} names the offending knobs so callers
    can refuse them with a precise error. *)

type t = {
  seed : int;  (** root of the per-worker decision streams *)
  beat_drop_prob : float;
      (** probability in [\[0, 1\]] that an interrupt/signal heartbeat
          delivery is lost before reaching its worker *)
  beat_jitter : int;
      (** maximum extra delivery delay in cycles for a non-dropped beat
          (uniform in [\[0, beat_jitter\]]); {e simulator-only} *)
  steal_fail_prob : float;
      (** probability that a steal attempt starts a forced-failure burst *)
  steal_fail_burst : int;
      (** consecutive forced steal failures per triggered burst (contended
          CAS retries); 0 or 1 means single failures *)
  stall_prob : float;
      (** per-scheduling-point probability that a worker is preempted *)
  stall_cycles : int;
      (** maximum stall window in cycles (uniform in [\[1, stall_cycles\]]);
          the simulator's stall duration *)
  stall_polls : int;
      (** maximum stall window in counted polls (uniform in
          [\[1, stall_polls\]]); the domains backend's stall duration — a
          stalled worker ignores that many of its own heartbeat polls *)
  delay_wakeup_prob : float;
      (** probability that a parked-worker wakeup signal is suppressed
          (domains backend; the owed wakeup is re-issued at the next wake,
          idle worker or shutdown) *)
}

val none : t
(** The zero plan: every probability 0, every window 0. Running under
    [none] is bit-identical to running with no fault layer at all. *)

val is_zero : t -> bool
(** True when the plan can never inject anything (the seed is ignored). *)

val with_seed : t -> int -> t

val random : Sim_rng.t -> t
(** Draw a bounded random plan (drop up to 50%, jitter up to 5k cycles,
    steal-failure bursts up to 4, stalls up to 10k cycles) for
    property-style differential testing on the simulator. The portable-only
    knobs stay zero so existing sim sweeps are unchanged. *)

val random_portable : Sim_rng.t -> t
(** Draw a bounded random plan using only backend-portable kinds (drop,
    steal refusal, poll-counted stalls up to 256 polls, wakeup suppression
    up to 30%) — suitable for native chaos campaigns. *)

val simulator_only : t -> string list
(** Human-readable names of the plan's simulator-only features, empty when
    the plan is portable to the domains backend. *)

val portable : t -> bool
(** [simulator_only t = []]. *)

val to_string : t -> string
(** One-line human-readable summary, e.g. for experiment captions. *)

val to_json : t -> Obs.Json.t
(** Byte-stable codec (fixed field order, ["%.17g"] floats): plans embed in
    fuzz repros and serve journals and round-trip exactly. *)

val of_json : Obs.Json.t -> t option
(** Inverse of {!to_json}; plans written before the portable kinds existed
    read back with those knobs zero. *)
