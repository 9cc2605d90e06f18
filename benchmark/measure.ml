(* Setup, timed rounds and metrics of one workload.

   Every layer is measured from outside: calls into public entry points
   are timed, and the closures of the public [Ir.Program.t] record are
   wrapped ([make_env], each [cpu.exec] nest call, [fingerprint]). The
   compiled program keeps its nests, so a wrapped source still finds its
   compiled nests by physical equality. Time comes from the monotonic
   clock only; a native run's [Run_result.makespan] is a gettimeofday
   difference and is never read. *)

module Stats = Report.Stats

let now () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-6

(* The two engines of a round: the serial reference, and the workload's
   HBC engine. *)
type side = Serial | Hbc

let sides = [ Serial; Hbc ]

let side_name = function Serial -> "serial" | Hbc -> "hbc"

type prog =
  | Prog : {
      name : string;
      compiled : 'e Hbc_core.Pipeline.program;
      reference : Sim.Run_result.t;  (** serial run: the fingerprint every run must match *)
    }
      -> prog

(* Wall time spent inside the wrapped closures during one pass. [gc] is
   the collection that follows each input build, so every run starts
   from a settled heap; like [env], it is not part of a run's time. *)
type spans = { mutable env : float; mutable gc : float; mutable nests : float; mutable fp : float }

let timed acc f x =
  let t0 = now () in
  let r = f x in
  acc (ms_since t0);
  r

let instrument sp (p : 'e Ir.Program.t) =
  {
    p with
    Ir.Program.make_env =
      (fun () ->
        let env = timed (fun d -> sp.env <- sp.env +. d) p.Ir.Program.make_env () in
        timed (fun d -> sp.gc <- sp.gc +. d) Gc.full_major ();
        env);
    driver =
      (fun env cpu ->
        p.Ir.Program.driver env
          { cpu with exec = timed (fun d -> sp.nests <- sp.nests +. d) cpu.Ir.Program.exec });
    fingerprint = timed (fun d -> sp.fp <- sp.fp +. d) p.Ir.Program.fingerprint;
  }

(* Scheduler events of one traced pass, counted by an [Obs.Trace.Sink.fn].
   The domains backend emits only under its trace mutex and the simulator
   runs on one domain, so plain fields are not raced. *)
type counts = {
  mutable spawned : int;
  mutable stolen : int;
  mutable steal_attempts : int;
  mutable join_slow : int;
  mutable promotions : int;
  mutable leftovers : int;
  mutable chunk_decisions : int;
  mutable slices : int;
  mutable batches : int;
  mutable iters : int;
}

let counting_sink c =
  Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ (ev : Obs.Trace.event) ->
      match ev with
      | Task_spawned -> c.spawned <- c.spawned + 1
      | Steal_success -> c.stolen <- c.stolen + 1
      | Steal_attempt -> c.steal_attempts <- c.steal_attempts + 1
      | Task_joined_slow -> c.join_slow <- c.join_slow + 1
      | Promotion _ -> c.promotions <- c.promotions + 1
      | Leftover_run -> c.leftovers <- c.leftovers + 1
      | Chunk_decision _ -> c.chunk_decisions <- c.chunk_decisions + 1
      | Slice_enter _ -> c.slices <- c.slices + 1
      | Iter_exec { lo; hi; _ } ->
          c.batches <- c.batches + 1;
          c.iters <- c.iters + (hi - lo)
      | _ -> ())

(* One engine over every program of the workload, back to back. *)
type pass = {
  wall : float;  (** ms summed over programs, [make_env] excluded *)
  spans : spans;
  per_prog : float list;  (** wall ms of each program, in workload order *)
  results : Sim.Run_result.t list;
  counts : counts option;  (** traced passes only *)
}

type state = {
  w : Spec.t;
  seed : int;
  scale : float;  (** input scale of every program *)
  mutable progs : prog list;
  sim_makespans : (string, int) Hashtbl.t;  (** first simulated makespan per program *)
  mutable attempted : int;
  mutable failed : int;
  mutable setup_s : float list;
  mutable compile_us : float list;
  mutable rounds : (side * pass) list list;  (** untraced rounds *)
  mutable traced : pass list;  (** traced HBC passes *)
}

let run_prog st ~trace side (Prog { compiled; _ }) sp =
  let compiled = { compiled with Hbc_core.Pipeline.source = instrument sp compiled.source } in
  let request = Hbc_core.Run_request.make ~trace () in
  match (side, st.w.Spec.hbc) with
  | Serial, _ -> Baselines.Serial_exec.run_program compiled.Hbc_core.Pipeline.source
  | Hbc, Domains { workers; beat } ->
      Hb_parallel.Native_run.run_program ~request ~beat
        { Hbc_core.Rt_config.hbc with workers; seed = st.seed }
        compiled
  | Hbc, Simulated { workers } ->
      Hbc_core.Executor.run_program ~request
        { Hbc_core.Rt_config.hbc with workers; seed = st.seed }
        compiled

(* A run counts only when it finished and matched the serial fingerprint;
   a simulated run must also repeat its first makespan, since virtual
   time is deterministic. *)
let check st side (Prog { name; reference; _ }) (r : Sim.Run_result.t) =
  Sim.Run_result.completed r
  && Sim.Run_result.fingerprints_close reference r
  &&
  match (side, st.w.Spec.hbc) with
  | Hbc, Simulated _ -> (
      match Hashtbl.find_opt st.sim_makespans name with
      | Some m -> m = r.Sim.Run_result.makespan
      | None ->
          Hashtbl.replace st.sim_makespans name r.Sim.Run_result.makespan;
          true)
  | _ -> true

(* Runs one pass; [None] when any of its runs raised, ended other than
   [Finished] or mismatched, so a failed run never reaches the timings. *)
let run_pass st ~traced side =
  let spans = { env = 0.0; gc = 0.0; nests = 0.0; fp = 0.0 } in
  let counts =
    if traced then
      Some
        {
          spawned = 0;
          stolen = 0;
          steal_attempts = 0;
          join_slow = 0;
          promotions = 0;
          leftovers = 0;
          chunk_decisions = 0;
          slices = 0;
          batches = 0;
          iters = 0;
        }
    else None
  in
  let trace = match counts with Some c -> counting_sink c | None -> Obs.Trace.Sink.null in
  let run (Prog { name; reference; _ } as prog) =
    let fail msg =
      st.failed <- st.failed + 1;
      Printf.eprintf "FAILED %s/%s on %s: %s\n%!" st.w.Spec.name name (side_name side) msg;
      None
    in
    st.attempted <- st.attempted + 1;
    let excluded0 = spans.env +. spans.gc in
    let t0 = now () in
    match run_prog st ~trace side prog spans with
    | exception e -> fail ("raised " ^ Printexc.to_string e)
    | r ->
        let wall = ms_since t0 -. (spans.env +. spans.gc -. excluded0) in
        if check st side prog r then Some (wall, r)
        else
          fail
            (Printf.sprintf "%s, fingerprint %.17g (reference %.17g)"
               (Sim.Run_result.termination_to_string r.Sim.Run_result.termination)
               r.Sim.Run_result.fingerprint reference.Sim.Run_result.fingerprint)
  in
  let runs = List.map run st.progs in
  if List.exists Option.is_none runs then None
  else
    let runs = List.filter_map Fun.id runs in
    let per_prog = List.map fst runs in
    Some
      {
        wall = List.fold_left ( +. ) 0.0 per_prog;
        spans;
        per_prog;
        results = List.map snd runs;
        counts;
      }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Builds the inputs, runs the serial references and compiles every
   program: the set-up a user waits for before the first run. *)
let set_up st =
  let t0 = now () in
  let compile_ms = ref 0.0 in
  st.progs <-
    List.map
      (fun name ->
        let (Ir.Program.Any p) = (Workloads.Registry.find name).Workloads.Registry.make st.scale in
        let reference = Baselines.Serial_exec.run_program p in
        let compiled =
          timed
            (fun d -> compile_ms := !compile_ms +. d)
            (Hbc_core.Pipeline.compile_program ~chunk:Hbc_core.Rt_config.hbc.chunk)
            p
        in
        Prog { name; compiled; reference })
      st.w.Spec.programs;
  st.setup_s <- st.setup_s @ [ ms_since t0 /. 1000.0 ];
  st.compile_us <- st.compile_us @ [ !compile_ms *. 1000.0 ]

(* One round runs each side's pass back to back, in an order drawn from
   the seed. *)
let round st ~rng =
  List.filter_map
    (fun s -> Option.map (fun p -> (s, p)) (run_pass st ~traced:false s))
    (shuffle rng sides)

(* Closed loop of rounds until [seconds] have elapsed (at least one
   round). Set-up is redone until it has run [reps] times in all, at even
   intervals of the window, so that the median set-up time covers the
   whole run as the rounds do, not just its first second. *)
let run_rounds st ~rng ~seconds ~reps =
  let window = seconds *. 1000.0 in
  let t0 = now () in
  let rec loop acc k =
    let elapsed = ms_since t0 in
    if acc <> [] && elapsed >= window then List.rev acc
    else if k < reps && elapsed >= float_of_int k *. window /. float_of_int reps then begin
      set_up st;
      loop acc (k + 1)
    end
    else loop (round st ~rng :: acc) k
  in
  loop [] 1

(* Traced HBC passes for [seconds] (at least one). *)
let run_traced st ~seconds =
  let t0 = now () in
  let rec loop acc =
    if acc <> [] && ms_since t0 >= seconds *. 1000.0 then List.rev acc
    else loop (Option.to_list (run_pass st ~traced:true Hbc) @ acc)
  in
  loop []

(* ---- metrics --------------------------------------------------------- *)

type metric = {
  name : string;
  unit : string;
  value : float;
  pct : float;  (** the percentile of the samples [value] is *)
  n : int;  (** samples behind the value *)
  spread : float;  (** interquartile range of the samples over their median *)
  samples : float list;  (** in measurement order *)
}

let iqr_rel xs =
  let m = Stats.median xs in
  if m = 0.0 then 0.0 else (Stats.percentile 75.0 xs -. Stats.percentile 25.0 xs) /. Float.abs m

let sampled ?(pct = 50.0) name unit xs =
  let value = if pct = 50.0 then Stats.median xs else Stats.percentile pct xs in
  { name; unit; value; pct; n = List.length xs; spread = iqr_rel xs; samples = xs }

let passes rounds s = List.filter_map (List.assoc_opt s) rounds

(* Per-round pairs: both sides passed in the same round. *)
let paired rounds f =
  List.filter_map
    (fun r ->
      match (List.assoc_opt Serial r, List.assoc_opt Hbc r) with
      | Some s, Some h -> Some (f s h)
      | _ -> None)
    rounds

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let walls rounds s = List.map (fun p -> p.wall) (passes rounds s)

(* Serial time over HBC time, per program, in one round: wall clock on
   domains; virtual cycles on the simulator (the paper's Fig. 4 speedup,
   which [check] makes the same in every round). *)
let speedups st s h =
  match st.w.Spec.hbc with
  | Domains _ -> List.map2 ( /. ) s.per_prog h.per_prog
  | Simulated _ ->
      List.map2
        (fun (Prog { reference; _ }) r -> Sim.Run_result.speedup ~baseline:reference r)
        st.progs h.results

(* Other tenants of a shared host only ever slow a round down, in bursts
   of seconds that can cover most of a run, so a run's median wall time
   jumps between a quiet and a loaded level. Wall times are therefore
   reported as their lower decile, which moves only when the quiet
   speed does. Ratios of the two sides in one round cancel the load, so
   they are reported as a median, the cost ratio also with the tail on
   its worse side. *)
let end_to_end st =
  let r = st.rounds in
  let fast name xs = sampled ~pct:10.0 name "ms" xs in
  let cost = paired r (fun s h -> h.wall /. s.wall) in
  [
    sampled "setup_s" "s" st.setup_s;
    fast "serial_ms_p10" (walls r Serial);
    fast "hbc_ms_p10" (walls r Hbc);
    sampled "hbc_over_serial_x" "x" cost;
    sampled ~pct:75.0 "hbc_over_serial_x_p75" "x" cost;
    sampled "speedup_x" "x" (paired r (fun s h -> Stats.geomean (speedups st s h)));
  ]

let per_layer st =
  let r = st.rounds in
  let hbc = passes r Hbc in
  let of_hbc name unit f = sampled name unit (List.map f hbc) in
  let traced = List.filter_map (fun p -> p.counts) st.traced in
  let count name f = sampled name "count" (List.map (fun c -> float_of_int (f c)) traced) in
  let work_mcycles p = float_of_int (sum (fun r -> r.Sim.Run_result.work_cycles) p.results) /. 1e6 in
  [
    sampled "workloads.env_build_ms" "ms" (List.map (fun (_, p) -> p.spans.env) (List.concat r));
    sampled "hbc_core.compile_us" "us" st.compile_us;
    sampled "baselines.serial_nest_ms" "ms" (List.map (fun p -> p.spans.nests) (passes r Serial));
    of_hbc "engine.nest_ms" "ms" (fun p -> p.spans.nests);
    sampled "engine.extra_nest_ms" "ms" (paired r (fun s h -> h.spans.nests -. s.spans.nests));
    of_hbc "engine.outside_nests_ms" "ms" (fun p -> p.wall -. p.spans.nests -. p.spans.fp);
    sampled "ir.fingerprint_ms" "ms" (List.map (fun (_, p) -> p.spans.fp) (List.concat r));
    of_hbc "engine.promotions" "count" (fun p ->
        float_of_int (sum (fun r -> r.Sim.Run_result.metrics.Sim.Metrics.promotions) p.results));
    of_hbc "engine.work_mcycles_per_s" "Mcycles/s" (fun p -> work_mcycles p /. (p.wall /. 1000.0));
    sampled "obs.trace_overhead_x" "x"
      (List.map (fun p -> p.wall /. Stats.median (walls r Hbc)) st.traced);
    count "sched.tasks_spawned" (fun c -> c.spawned);
    count "sched.promotions" (fun c -> c.promotions);
    count "sched.leftovers_run" (fun c -> c.leftovers);
    count "sched.chunk_decisions" (fun c -> c.chunk_decisions);
    count "sched.tasks_stolen" (fun c -> c.stolen);
    count "sched.steal_attempts" (fun c -> c.steal_attempts);
    sampled "sched.steal_success_ratio" "ratio"
      (List.map (fun c -> ratio c.stolen c.steal_attempts) traced);
    count "sched.join_slow" (fun c -> c.join_slow);
    count "engine.slices_entered" (fun c -> c.slices);
    count "engine.iter_batches" (fun c -> c.batches);
    sampled "engine.iters_per_batch" "iters" (List.map (fun c -> ratio c.iters c.batches) traced);
  ]

(* Per-program medians, the split each end-to-end figure sums over. *)
let per_program st =
  let column s i = List.map (fun p -> List.nth p.per_prog i) (passes st.rounds s) in
  let speedup i = paired st.rounds (fun s h -> List.nth (speedups st s h) i) in
  List.mapi
    (fun i (Prog { name; _ }) ->
      ( name,
        [
          sampled "serial_ms" "ms" (column Serial i);
          sampled "hbc_ms" "ms" (column Hbc i);
          sampled "speedup_x" "x" (speedup i);
        ] ))
    st.progs

(* Set-up, two untimed warm-up rounds, untraced rounds for [untraced_s],
   then, when [traced_s] is given, a separate traced pass of HBC runs:
   tracing serializes the domains backend's scheduling points, so it
   never touches the end-to-end timings. *)
let run (w : Spec.t) ~seed ~reps ~scale_factor ~untraced_s ~traced_s =
  let st =
    {
      w;
      seed;
      scale = w.scale *. scale_factor;
      progs = [];
      sim_makespans = Hashtbl.create 16;
      attempted = 0;
      failed = 0;
      setup_s = [];
      compile_us = [];
      rounds = [];
      traced = [];
    }
  in
  let rng = Random.State.make [| seed |] in
  set_up st;
  for _ = 1 to 2 do
    ignore (round st ~rng)
  done;
  st.rounds <- run_rounds st ~rng ~seconds:untraced_s ~reps;
  Option.iter (fun seconds -> st.traced <- run_traced st ~seconds) traced_s;
  st
