(* Heartbeat scheduling for recursive fork-join programs — the extension
   the paper leaves as future work (HBC targets loops; TPAL's other
   benchmarks were recursive). Write naive divide-and-conquer with NO manual
   sequential cutoff: every fork is latent parallelism and the runtime
   materializes only a heartbeat's worth of tasks.

   Run with: dune exec examples/recursive_fork_join.exe *)

module FJ = Hbc_core.Fork_join

(* Naive Fibonacci: the classic granularity-control torture test. *)
let rec fib ctx n =
  if n < 2 then begin
    FJ.advance ctx 20;
    n
  end
  else begin
    let a, b = FJ.fork2 ctx (fun c -> fib c (n - 1)) (fun c -> fib c (n - 2)) in
    FJ.advance ctx 10;
    a + b
  end

(* Divide-and-conquer maximum-subarray (Kadane is linear, but the D&C
   formulation is the textbook fork-join recursion with nontrivial merge). *)
type span = { total : float; best : float; prefix : float; suffix : float }

let leaf_span v = { total = v; best = v; prefix = v; suffix = v }

let merge l r =
  {
    total = l.total +. r.total;
    best = Float.max (Float.max l.best r.best) (l.suffix +. r.prefix);
    prefix = Float.max l.prefix (l.total +. r.prefix);
    suffix = Float.max r.suffix (r.total +. l.suffix);
  }

let rec max_subarray ctx (data : float array) lo hi =
  if hi - lo = 1 then begin
    FJ.advance_bytes ctx ~compute:6 ~bytes:8;
    leaf_span data.(lo)
  end
  else begin
    let mid = (lo + hi) / 2 in
    let l, r =
      FJ.fork2 ctx
        (fun c -> max_subarray c data lo mid)
        (fun c -> max_subarray c data mid hi)
    in
    FJ.advance ctx 14;
    merge l r
  end

let report name (r : FJ.result) =
  let promoted = r.FJ.metrics.Sim.Metrics.promotions in
  Printf.printf
    "%-14s work %9d cy | makespan %8d cy | speedup %5.1fx | forks: %d sequential, %d promoted (%.2f%% promoted)\n"
    name r.FJ.work_cycles r.FJ.makespan
    (Float.of_int r.FJ.work_cycles /. Float.of_int r.FJ.makespan)
    r.FJ.sequential_forks promoted
    (100.0
    *. Float.of_int promoted
    /. Float.of_int (Stdlib.max 1 (r.FJ.sequential_forks + promoted)))

let rec fib_ref n = if n < 2 then n else fib_ref (n - 1) + fib_ref (n - 2)

(* Exit non-zero on a wrong answer, so a run of this example is a check. *)
let expect what ok =
  if not ok then begin
    Printf.eprintf "recursive_fork_join: %s differs from its reference\n" what;
    exit 1
  end

let () =
  let result = ref 0 in
  let r = FJ.run (fun ctx -> result := fib ctx 24) in
  Printf.printf "fib 24 = %d\n" !result;
  report "fib" r;
  expect "fib 24" (!result = fib_ref 24);

  let n = 200_000 in
  let rng = Sim.Sim_rng.create 99 in
  let data = Array.init n (fun _ -> Sim.Sim_rng.float rng 2.0 -. 1.0) in
  let best = ref 0.0 in
  let r2 = FJ.run (fun ctx -> best := (max_subarray ctx data 0 n).best) in
  (* Kadane reference *)
  let kadane = ref Float.neg_infinity and cur = ref 0.0 in
  Array.iter
    (fun v ->
      cur := Float.max v (!cur +. v);
      kadane := Float.max !kadane !cur)
    data;
  Printf.printf "\nmax-subarray best = %.4f (Kadane reference %.4f)\n" !best !kadane;
  report "max-subarray" r2;
  expect "max-subarray" (Float.abs (!best -. !kadane) <= 1e-9 *. Float.max 1.0 (Float.abs !kadane));
  print_endline
    "\nNote the promoted-fork percentage: heartbeat scheduling materializes a tiny,\n\
     bounded fraction of the logical forks, with no manual cutoff in the code."
