let figures =
  [
    Fig4.figure;
    Fig5.figure;
    Fig6.figure;
    Fig7.figure;
    Fig8.figure;
    Fig9.figure;
    Fig10.figure;
    Fig11.figure;
    Fig12.figure;
    Fig13.figure;
    Fig14.figure;
    Fig15.figure;
    Fig16.figure;
    Fault_sweep.figure;
    Serve_bench.figure;
  ]

let find id =
  match List.find_opt (fun f -> f.Figure.id = id) figures with
  | Some f -> f
  | None -> raise Not_found

let render_one config (f : Figure.t) =
  let before = List.length (Harness.validation_failures ()) in
  let body = Figure.render_guarded f config in
  let failures = Harness.validation_failures () in
  let fresh = List.filteri (fun i _ -> i >= before) failures in
  let warn =
    if fresh = [] then ""
    else
      "\nWARNING: output mismatch vs sequential reference: "
      ^ String.concat ", " (List.map (fun (b, t) -> b ^ "/" ^ t) fresh)
      ^ "\n"
  in
  Printf.sprintf "== %s: %s ==\n%s%s\n" f.Figure.id f.Figure.caption body warn

(* End-of-campaign accounting: what the journal saved us, and which trials
   were quarantined — failures are reported, never silently dropped. *)
let campaign_summary () =
  let buf = Buffer.create 256 in
  (match Harness.journal () with
  | None -> ()
  | Some j ->
      Buffer.add_string buf
        (Printf.sprintf "journal: %d reused, %d recorded (%s)\n" (Checkpoint.hits j)
           (Checkpoint.appended j) (Checkpoint.path j));
      if Checkpoint.skipped_lines j > 0 then
        Buffer.add_string buf
          (Printf.sprintf "journal: dropped %d corrupt line(s) from an interrupted run\n"
             (Checkpoint.skipped_lines j)));
  (match Harness.quarantined () with
  | [] -> ()
  | qs ->
      Buffer.add_string buf (Printf.sprintf "quarantined trials (%d):\n" (List.length qs));
      List.iter
        (fun (label, e) ->
          Buffer.add_string buf (Printf.sprintf "  %s: %s\n" label (Trial_error.to_string e)))
        qs);
  Buffer.contents buf

(* A divergence exits 2. A trial that crashed, deadlocked or broke an
   invariant exits 4, as [run] does for a trial error; a timeout is a
   budget the caller set, so it keeps exit 0. *)
let exit_code () =
  if Harness.validation_failures () <> [] then 2
  else if
    List.exists
      (fun (_, e) ->
        match e with
        | Trial_error.Crash _ | Trial_error.Deadlock _ | Trial_error.Invariant_violation _ -> true
        | Trial_error.Timeout _ | Trial_error.Result_mismatch _ -> false)
      (Harness.quarantined ())
  then 4
  else 0

let render_all config =
  let body = String.concat "\n" (List.map (render_one config) figures) in
  match campaign_summary () with "" -> body | summary -> body ^ "\n" ^ summary

(* Domains-parallel campaign: a warm phase renders figures concurrently
   (each domain claims whole figures off an atomic index; every trial
   result lands in the harness warm table), then the ordinary sequential
   [render_all] replays — trials hit the warm table instead of
   simulating, and journal/figure bytes come out identical to a
   sequential campaign because only the sequential pass writes them.
   Trials already in the journal are replayed from disk by the replay
   pass as usual; the warm phase recomputes them redundantly (it does
   not read the journal, by design), so [--resume] costs some warm-phase
   work but stays correct. *)
let render_all_parallel config ~domains =
  if domains <= 1 then render_all config
  else begin
  Harness.begin_warm ();
  let figs = Array.of_list figures in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length figs then begin
        (* Guarded render: per-figure aborts are reported by the replay
           pass, not here. *)
        ignore (Figure.render_guarded figs.(i) config);
        loop ()
      end
    in
    loop ()
  in
  let n = Stdlib.max 1 (Stdlib.min domains (Array.length figs)) in
  let spawned = Array.init (n - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned;
  if config.Harness.verbose then
    Printf.eprintf "[warm] %d trial results from %d domain(s)\n%!" (Harness.warm_results ()) n;
  Harness.end_warm ();
  render_all config
  end
