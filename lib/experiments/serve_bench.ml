(* Serving experiment: the same seeded multi-tenant overload scenario
   offered to each service executor — HBC's metered promotions against the
   TPAL and OpenMP baselines. The paper only ever measures one job's
   makespan on a dedicated pool; here the pool is shared and the question
   is the tail: sojourn p50/p95/p99, goodput under overload, and how much
   work each service sheds or lets blow its deadline. Everything is
   virtual time, so every cell is deterministic from the seed. *)

let services =
  List.map
    (fun name -> (name, snd (Option.get (Sched_run.of_name ~chunk:64 name))))
    [ "hbc"; "tpal"; "omp-static"; "omp-dynamic" ]

(* Two offered loads over the same tenant mix: arrivals comfortably apart,
   then an adversarial burst pattern against a short queue. *)
let loads =
  [
    ("steady", Serve.Arrival.Poisson { mean_gap = 2_000_000.0 }, 16);
    ("overload", Serve.Arrival.Adversarial { quiet = 200_000; burst = 4 }, 4);
  ]

let tenant arrival i =
  let workloads = [| "plus-reduce-array"; "mandelbrot"; "kmeans" |] in
  {
    Serve.Server.tenant_default with
    Serve.Server.weight = 1 + (i mod 2);
    arrival;
    jobs = 5;
    workloads = [ workloads.(i mod Array.length workloads) ];
    scale = 0.01;
    workers_wanted = 2 + (2 * (i mod 2));
    deadline = Some (1_000_000, 4_000_000);
  }

let config_for seed service arrival queue_capacity =
  {
    Serve.Server.default_config with
    Serve.Server.tenants = Array.init 3 (tenant arrival);
    pool = 8;
    queue_capacity;
    seed;
    service;
    sanitize = true;
  }

let render (config : Harness.config) =
  let sections =
    List.map
      (fun (load_label, arrival, qcap) ->
        let table =
          Report.Table.create
            ~title:(Printf.sprintf "Serving under %s load (3 tenants x 5 jobs, pool 8, queue %d)" load_label qcap)
            ~columns:
              [
                "service";
                "completed";
                "shed";
                "deadline";
                "failed";
                "p50 sojourn";
                "p95";
                "p99";
                "goodput";
                "violations";
              ]
        in
        List.iter
          (fun (name, service) ->
            let r = Serve.Server.run (config_for config.Harness.seed service arrival qcap) in
            let s = r.Serve.Server.stats in
            Report.Table.add_row table
              [
                name;
                Printf.sprintf "%d/%d" s.Serve.Server.completed s.Serve.Server.submitted;
                string_of_int s.Serve.Server.shed;
                string_of_int s.Serve.Server.deadline_exceeded;
                string_of_int s.Serve.Server.failed;
                Printf.sprintf "%.0f" s.Serve.Server.sojourn_p50;
                Printf.sprintf "%.0f" s.Serve.Server.sojourn_p95;
                Printf.sprintf "%.0f" s.Serve.Server.sojourn_p99;
                Printf.sprintf "%.3f" s.Serve.Server.goodput;
                string_of_int (List.length r.Serve.Server.violations);
              ])
          services;
        Report.Table.render table)
      loads
  in
  String.concat "\n"
    (sections
    @ [
        "Sojourns in virtual cycles; goodput is completed work cycles per server cycle.";
        "Deadline misses and sheds are the server degrading explicitly, never silent drops.";
      ])

let figure =
  Figure.make ~id:"serve-bench"
    ~caption:
      "Multi-tenant serving (not in the paper): tail sojourn and goodput for HBC vs TPAL/OpenMP \
       services under steady and adversarial-overload offered load"
    render
