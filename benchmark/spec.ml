(* The benchmark's workloads. A round of any workload runs its programs
   through two engines: the serial reference and one HBC engine, the one
   its reason names. Every workload reports the same metrics, where "hbc"
   means that workload's own engine, because a benchmark run prints every
   end-to-end metric BENCHMARK.json names. Inputs are the registry's own,
   built from fixed generator seeds. *)

type engine =
  | Domains of { workers : int; beat : Hb_parallel.Native_run.beat_source }
      (** HBC on real OCaml domains ([Native_run]) *)
  | Simulated of { workers : int }  (** HBC on the virtual-time simulator ([Executor]) *)

type t = { name : string; programs : string list; scale : float; hbc : engine }

(* Leaf iterations of ~10-20 cycles: per-iteration interpretation, polls,
   chunking and spawns dominate. *)
let fine = [ "spmv-powerlaw"; "bfs"; "cg" ]

(* Iterations of thousands of cycles: leaf bodies dominate. *)
let coarse = [ "mandelbrot"; "mandelbulb"; "kmeans" ]

let all =
  [
    (* The Figs. 6-7 claim on one domain: what heartbeat code costs over
       serial where that cost is largest. *)
    {
      name = "native-fine";
      programs = fine;
      scale = 0.15;
      hbc = Domains { workers = 1; beat = Wall_us 100.0 };
    };
    (* Parallel speedup on two domains, where steal, park and wake costs
       show and the interpreter's per-iteration cost does not. *)
    {
      name = "native-coarse";
      programs = coarse;
      scale = 0.2;
      hbc = Domains { workers = 2; beat = Wall_us 100.0 };
    };
    (* native-fine with no clock read per poll: the schedule is
       reproducible, so count-based claims rest here, and a beat-source
       change shows as the difference from native-fine. *)
    {
      name = "native-polls";
      programs = fine;
      scale = 0.15;
      hbc = Domains { workers = 1; beat = Every_polls 16 };
    };
    (* The 13 Fig. 4 irregular programs at 64 simulated cores: the other
       backend of the same scheduler core, so a change that speeds one
       backend by slowing the other shows. *)
    {
      name = "sim-fig4";
      programs =
        List.map (fun e -> e.Workloads.Registry.name) (Workloads.Registry.irregular_set ());
      scale = 0.03;
      hbc = Simulated { workers = 64 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let engine_to_string = function
  | Domains { workers; beat = Wall_us us } -> Printf.sprintf "domains P=%d beat wall_us:%g" workers us
  | Domains { workers; beat = Every_polls n } ->
      Printf.sprintf "domains P=%d beat every_polls:%d" workers n
  | Simulated { workers } -> Printf.sprintf "simulator P=%d" workers
