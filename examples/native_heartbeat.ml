(* The native (non-simulated) heartbeat runtime on OCaml 5 domains:
   heartbeat-promoted parallel_for and parallel_reduce over real threads.
   On a single-core machine this demonstrates correctness; on a multicore it
   also yields speedup.

   Run with: dune exec examples/native_heartbeat.exe
   Exits 1 when the reduction or the matrix differs from its sequential
   reference. *)

module Hb_par = Hb_parallel.Hb_par

(* Seconds on the monotonic clock: wall-clock time can step backwards. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let () =
  let n = 2_000_000 in
  let data = Array.init n (fun i -> Float.of_int (i mod 97) /. 97.0) in

  (* Sequential reference. *)
  let t0 = now_s () in
  let expected = Array.fold_left ( +. ) 0.0 data in
  let t_seq = now_s () -. t0 in

  Hb_par.with_pool ~num_domains:4 (fun pool ->
      (* Heartbeat-promoted reduction. *)
      let t0 = now_s () in
      let total =
        Hb_par.parallel_reduce pool ~lo:0 ~hi:n ~init:0.0
          ~body:(fun acc i -> acc +. data.(i))
          ~combine:( +. )
      in
      let t_par = now_s () -. t0 in
      (* Float addition is not associative, so split order may move the
         last bits; anything beyond rounding is a lost or doubled range. *)
      let rel_err = Float.abs (expected -. total) /. Float.abs expected in
      Printf.printf "reduce: expected %.6f, got %.6f (relative error %.2e)\n" expected total
        rel_err;
      Printf.printf "sequential %.1f ms, heartbeat %.1f ms, promotions %d on %d domains\n"
        (1000.0 *. t_seq) (1000.0 *. t_par) (Hb_par.promotions pool)
        (Hb_par.num_domains pool);

      (* Nested parallel_for: fill a matrix, check every cell. *)
      let rows = 600 and cols = 600 in
      let m = Array.make_matrix rows cols 0 in
      Hb_par.parallel_for pool ~lo:0 ~hi:rows (fun i ->
          Hb_par.parallel_for pool ~lo:0 ~hi:cols (fun j -> m.(i).(j) <- (i * cols) + j));
      let ok = ref true in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          if m.(i).(j) <> (i * cols) + j then ok := false
        done
      done;
      Printf.printf "nested parallel_for on %dx%d matrix: %s\n" rows cols
        (if !ok then "all cells correct" else "CORRUPTED");
      if rel_err > 1e-9 || not !ok then exit 1)
