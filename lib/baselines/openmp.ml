type schedule = Static | Dynamic of int | Guided of int

type nested_mode = Outermost_only | All_doall

type config = {
  cost : Sim.Cost_model.t;
  workers : int;
  schedule : schedule;
  nested : nested_mode;
  seed : int;
}

let dynamic ?(chunk = 1) ?(workers = 64) () =
  {
    cost = Sim.Cost_model.default;
    workers;
    schedule = Dynamic chunk;
    nested = Outermost_only;
    seed = 1;
  }

(* Content hash of the result-affecting fields, mirroring
   [Rt_config.signature]; per-run knobs live in the Run_request and are
   hashed by its own signature. *)
let signature t =
  Digest.to_hex
    (Digest.string (Marshal.to_string (t.cost, t.workers, t.schedule, t.nested, t.seed) []))

let static ?(workers = 64) () = { (dynamic ~workers ()) with schedule = Static }

let guided ?(min_chunk = 1) ?(workers = 64) () =
  { (dynamic ~workers ()) with schedule = Guided min_chunk }

type region = {
  rid : int;
  participate : int -> unit;
  mutable arrived : int;
}

type run_state = {
  cfg : config;
  eng : Sim.Engine.t;
  metrics : Sim.Metrics.t;
  trace : Obs.Trace.Sink.t;
  capture : bool;
  mutable current : region option;
  mutable next_rid : int;
  mutable finished : bool;
  mutable nested_lock_free_at : int;  (* global libomp lock for nested team creation *)
  mutable dispatch_free_at : int;  (* shared dynamic-schedule counter occupancy *)
  last_seen : int array;
}

let overhead st kind c = Hbc_core.Sim_backend.charge_overhead st.eng st.metrics kind c

let add_work st c = Hbc_core.Sim_backend.charge_work st.eng st.metrics c

(* Work with its memory traffic booked on the engine's bus. *)
let add_work_bytes st c bytes =
  Hbc_core.Sim_backend.charge_mixed st.eng st.metrics ~work:c ~overhead:0 ~bytes

let reduction_cost (spec : Ir.Locals.spec) =
  8 + (2 * (spec.Ir.Locals.nfloats + spec.Ir.Locals.nints))

(* Serial execution of a subtree into an accumulator (no scheduling cost). *)
let rec serial_into acc acc_bytes env ctxs (l : _ Ir.Nest.loop) =
  let ctx = ctxs.(l.Ir.Nest.ordinal) in
  (match l.Ir.Nest.init with Some f -> f env ctx.Ir.Ctx.locals | None -> ());
  acc_bytes := !acc_bytes + ((ctx.Ir.Ctx.hi - ctx.Ir.Ctx.lo) * l.Ir.Nest.bytes_per_iter);
  while ctx.Ir.Ctx.lo < ctx.Ir.Ctx.hi do
    List.iter
      (fun seg ->
        match seg with
        | Ir.Nest.Stmt s -> acc := !acc + s.Ir.Nest.exec env ctxs ctx.Ir.Ctx.lo
        | Ir.Nest.Nested child ->
            let lo, hi = child.Ir.Nest.bounds env ctxs in
            Ir.Ctx.set_slice ctxs.(child.Ir.Nest.ordinal) ~lo ~hi;
            serial_into acc acc_bytes env ctxs child)
      l.Ir.Nest.body;
    ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
  done

(* One iteration of a parallelized loop. In [All_doall] mode every nested
   DOALL invocation builds a nested team: grab the global runtime lock, pay
   the fork, spawn one task per inner iteration, run them (serially: the
   machine is already fully subscribed), and join. *)
let rec omp_iteration st env ctxs (l : _ Ir.Nest.loop) iter acc acc_bytes =
  acc_bytes := !acc_bytes + l.Ir.Nest.bytes_per_iter;
  List.iter
    (fun seg ->
      match seg with
      | Ir.Nest.Stmt s -> acc := !acc + s.Ir.Nest.exec env ctxs iter
      | Ir.Nest.Nested child -> (
          let lo, hi = child.Ir.Nest.bounds env ctxs in
          Ir.Ctx.set_slice ctxs.(child.Ir.Nest.ordinal) ~lo ~hi;
          match st.cfg.nested with
          | Outermost_only -> serial_into acc acc_bytes env ctxs child
          | All_doall when not child.Ir.Nest.doall -> serial_into acc acc_bytes env ctxs child
          | All_doall ->
              (* Flush accumulated work so lock contention happens in virtual
                 time order. *)
              add_work_bytes st !acc !acc_bytes;
              acc := 0;
              acc_bytes := 0;
              let now = Sim.Engine.now st.eng in
              let wait = Stdlib.max 0 (st.nested_lock_free_at - now) in
              overhead st Sim.Metrics.Omp_contention wait;
              (* Team construction owns the runtime lock for substantially
                 longer than a top-level fork: thread-pool churn under
                 oversubscription. *)
              st.nested_lock_free_at <-
                Sim.Engine.now st.eng + (3 * st.cfg.cost.Sim.Cost_model.omp_fork_cost);
              overhead st Sim.Metrics.Omp_fork st.cfg.cost.Sim.Cost_model.omp_fork_cost;
              let iters = Stdlib.max 0 (hi - lo) in
              overhead st Sim.Metrics.Omp_spawn
                (iters * st.cfg.cost.Sim.Cost_model.omp_task_spawn_cost);
              st.metrics.Sim.Metrics.tasks_spawned <-
                st.metrics.Sim.Metrics.tasks_spawned + iters;
              (match child.Ir.Nest.init with
              | Some f -> f env ctxs.(child.Ir.Nest.ordinal).Ir.Ctx.locals
              | None -> ());
              let cctx = ctxs.(child.Ir.Nest.ordinal) in
              while cctx.Ir.Ctx.lo < cctx.Ir.Ctx.hi do
                omp_iteration st env ctxs child cctx.Ir.Ctx.lo acc acc_bytes;
                cctx.Ir.Ctx.lo <- cctx.Ir.Ctx.lo + 1
              done;
              add_work_bytes st !acc !acc_bytes;
              acc := 0;
              acc_bytes := 0;
              overhead st Sim.Metrics.Omp_join st.cfg.cost.Sim.Cost_model.omp_join_cost))
    l.Ir.Nest.body

let exec_nest st (prog : _ Ir.Program.t) env (nest : _ Ir.Nest.loop) =
  let serial_requested = List.mem nest.Ir.Nest.loop_name prog.Ir.Program.omp_serial_nests in
  if serial_requested then begin
    let work = ref 0 in
    Serial_exec.run_nest ~charge:(fun c -> work := !work + c) env nest;
    add_work st !work
  end
  else begin
    let n = Ir.Nest.index nest in
    let specs = Ir.Nest.locals_specs nest in
    overhead st Sim.Metrics.Omp_fork st.cfg.cost.Sim.Cost_model.omp_fork_cost;
    (* Root bounds are evaluated once by the master, like libomp does. *)
    let probe_ctxs = Array.init n (fun o -> Ir.Ctx.make ~ordinal:o ~spec:specs.(o)) in
    let lo, hi = nest.Ir.Nest.bounds env probe_ctxs in
    let counter = ref lo in
    let per_worker_ctxs = Array.make st.cfg.workers None in
    let participate w =
      let t0 = Sim.Engine.now st.eng in
      let ctxs = Array.init n (fun o -> Ir.Ctx.make ~ordinal:o ~spec:specs.(o)) in
      per_worker_ctxs.(w) <- Some ctxs;
      Ir.Ctx.set_slice ctxs.(nest.Ir.Nest.ordinal) ~lo ~hi;
      (match nest.Ir.Nest.init with
      | Some f -> f env ctxs.(nest.Ir.Nest.ordinal).Ir.Ctx.locals
      | None -> ());
      overhead st Sim.Metrics.Omp_setup st.cfg.cost.Sim.Cost_model.omp_static_setup_cost;
      (match st.cfg.schedule with
      | Static ->
          let len = hi - lo in
          let p = st.cfg.workers in
          let blo = lo + (w * len / p) and bhi = lo + ((w + 1) * len / p) in
          let acc = ref 0 and acc_bytes = ref 0 in
          let ctx = ctxs.(nest.Ir.Nest.ordinal) in
          for i = blo to bhi - 1 do
            ctx.Ir.Ctx.lo <- i;
            omp_iteration st env ctxs nest i acc acc_bytes;
            (* Book traffic in bounded batches so the bus interleaves
               fairly between team members. *)
            if !acc > 200_000 then begin
              add_work_bytes st !acc !acc_bytes;
              acc := 0;
              acc_bytes := 0
            end
          done;
          add_work_bytes st !acc !acc_bytes
      | Dynamic _ | Guided _ ->
          let continue_ = ref true in
          let ctx = ctxs.(nest.Ir.Nest.ordinal) in
          while !continue_ do
            let k = !counter in
            if k >= hi then continue_ := false
            else begin
              let chunk =
                match st.cfg.schedule with
                | Dynamic c -> c
                | Guided min_chunk ->
                    (* libomp's guided: proportional to the remaining
                       iterations per team member, floored at min_chunk. *)
                    Stdlib.max min_chunk ((hi - k) / (2 * st.cfg.workers))
                | Static -> assert false
              in
              counter := Stdlib.min hi (k + chunk);
              (* The dynamic-schedule counter is one shared cache line: each
                 grab owns it exclusively for a few cycles, serializing
                 fine-grained dynamic scheduling across 64 threads. *)
              let now = Sim.Engine.now st.eng in
              let wait = Stdlib.max 0 (st.dispatch_free_at - now) in
              st.dispatch_free_at <-
                Stdlib.max now st.dispatch_free_at + st.cfg.cost.Sim.Cost_model.omp_dispatch_hold;
              overhead st Sim.Metrics.Omp_contention wait;
              overhead st Sim.Metrics.Omp_dispatch st.cfg.cost.Sim.Cost_model.omp_dispatch_cost;
              let acc = ref 0 and acc_bytes = ref 0 in
              for i = k to Stdlib.min hi (k + chunk) - 1 do
                ctx.Ir.Ctx.lo <- i;
                omp_iteration st env ctxs nest i acc acc_bytes
              done;
              add_work_bytes st !acc !acc_bytes
            end
          done);
      if st.capture && Sim.Engine.now st.eng > t0 then
        Obs.Trace.Sink.emit st.trace ~time:(Sim.Engine.now st.eng) ~worker:w
          (Obs.Trace.Interval { t0; kind = "omp-region" })
    in
    let region = { rid = st.next_rid; participate; arrived = 0 } in
    st.next_rid <- st.next_rid + 1;
    st.current <- Some region;
    Sim.Engine.unpark_all st.eng;
    (* Master participates too. *)
    st.last_seen.(0) <- region.rid;
    participate 0;
    region.arrived <- region.arrived + 1;
    while region.arrived < st.cfg.workers do
      Sim.Engine.park st.eng
    done;
    st.current <- None;
    (* Sequential reduction of the team's private copies by the master. *)
    (match nest.Ir.Nest.reduction with
    | Some combine ->
        let master_ctxs = Option.get per_worker_ctxs.(0) in
        for w = 1 to st.cfg.workers - 1 do
          match per_worker_ctxs.(w) with
          | Some ctxs ->
              overhead st Sim.Metrics.Omp_reduce (reduction_cost specs.(nest.Ir.Nest.ordinal));
              combine master_ctxs.(nest.Ir.Nest.ordinal).Ir.Ctx.locals
                ctxs.(nest.Ir.Nest.ordinal).Ir.Ctx.locals
          | None -> ()
        done;
        (match nest.Ir.Nest.commit with Some f -> f env master_ctxs | None -> ())
    | None -> (
        match (nest.Ir.Nest.commit, per_worker_ctxs.(0)) with
        | Some f, Some master_ctxs -> f env master_ctxs
        | _ -> ()));
    overhead st Sim.Metrics.Omp_join st.cfg.cost.Sim.Cost_model.omp_join_cost
  end

let omp_worker st w =
  while not st.finished do
    match st.current with
    | Some r when st.last_seen.(w) < r.rid ->
        st.last_seen.(w) <- r.rid;
        r.participate w;
        r.arrived <- r.arrived + 1;
        if r.arrived = st.cfg.workers then Sim.Engine.unpark st.eng 0
    | Some _ | None -> if not st.finished then Sim.Engine.park st.eng
  done

let run_program ?(request = Hbc_core.Run_request.default) cfg (prog : _ Ir.Program.t) =
  let env = prog.Ir.Program.make_env () in
  let eng =
    Sim.Engine.create ~seed:cfg.seed
      ~bus_bytes_per_cycle:cfg.cost.Sim.Cost_model.dram_bytes_per_cycle ~num_workers:cfg.workers ()
  in
  let metrics = Sim.Metrics.create () in
  let st =
    {
      cfg;
      eng;
      metrics;
      trace = request.Hbc_core.Run_request.trace;
      capture = Obs.Trace.Sink.enabled request.Hbc_core.Run_request.trace;
      current = None;
      next_rid = 1;
      finished = false;
      nested_lock_free_at = 0;
      dispatch_free_at = 0;
      last_seen = Array.make cfg.workers 0;
    }
  in
  Hbc_core.Sim_backend.supervise eng metrics request
    ~fingerprint:(fun () -> prog.Ir.Program.fingerprint env)
    (fun () ->
      Sim.Engine.run eng (fun w ->
          if w = 0 then begin
            let cpu =
              {
                Ir.Program.exec = (fun nest -> exec_nest st prog env nest);
                advance = (fun c -> add_work st c);
              }
            in
            prog.Ir.Program.driver env cpu;
            st.finished <- true;
            Sim.Engine.unpark_all eng
          end
          else omp_worker st w);
      Sim.Run_result.Finished)
