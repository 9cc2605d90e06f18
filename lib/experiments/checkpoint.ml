(* Crash-safe trial journal: one JSON object per line, append-only, flushed
   after every record so a killed campaign loses at most the trial in
   flight. Lines that fail to parse (a torn write from a kill -9) are
   skipped on resume and the trial simply re-runs.

   JSON encoding/decoding lives in {!Obs.Json} (shared with the trace
   exporter); this module only owns the journal schema. *)

open Obs.Json

(* ------------------------------------------------------------------ *)
(* Journal entries.                                                    *)
(* ------------------------------------------------------------------ *)

type status = Completed of Sim.Run_result.t | Failed of Trial_error.t

type entry = {
  key : string;
  bench : string;
  tag : string;
  scale : float;
  workers : int;
  seed : int;
  status : status;
}

(* v2: metrics are pure counters (downgrade/chunk-trace lists became trace
   events) and results carry an optional captured trace. v1 lines no longer
   parse into current metrics and are dropped on resume, forcing a re-run. *)
let version = 2

let termination_to_json (t : Sim.Run_result.termination) =
  match t with
  | Sim.Run_result.Finished -> Obj [ ("state", Str "finished") ]
  | Sim.Run_result.Dnf -> Obj [ ("state", Str "dnf") ]
  | Sim.Run_result.Budget_exceeded { budget; at } ->
      Obj [ ("state", Str "budget"); ("budget", Int budget); ("at", Int at) ]
  | Sim.Run_result.Guard_aborted reason ->
      Obj [ ("state", Str "guard"); ("reason", Str reason) ]
  | Sim.Run_result.Paused ck ->
      (* Byte-stable checkpoint codec string; journal round trips keep the
         resume-divergence byte check meaningful. *)
      Obj [ ("state", Str "paused"); ("ckpt", Str (Sim.Checkpoint_state.to_string ck)) ]

let termination_of_json = function
  | Obj fields -> (
      match get_str "state" fields with
      | Some "finished" -> Sim.Run_result.Finished
      | Some "dnf" -> Sim.Run_result.Dnf
      | Some "paused" -> (
          match
            Option.map Sim.Checkpoint_state.of_string (get_str "ckpt" fields)
          with
          | Some (Ok ck) -> Sim.Run_result.Paused ck
          | Some (Error _) | None -> Sim.Run_result.Finished)
      | Some "budget" ->
          Sim.Run_result.Budget_exceeded
            {
              budget = Option.value ~default:0 (get_int "budget" fields);
              at = Option.value ~default:0 (get_int "at" fields);
            }
      | Some "guard" ->
          Sim.Run_result.Guard_aborted (Option.value ~default:"" (get_str "reason" fields))
      | _ -> Sim.Run_result.Finished)
  | _ -> Sim.Run_result.Finished

let metrics_to_json (m : Sim.Metrics.t) =
  Obj
    [
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) (Sim.Metrics.counters m)));
      ( "promotions_by_level",
        Arr (Array.to_list (Array.map (fun n -> Int n) m.Sim.Metrics.promotions_by_level)) );
      ( "overhead",
        Obj (List.map (fun (k, v) -> (k, Int v)) (Sim.Metrics.attribution m)) );
    ]

let metrics_of_json j =
  let m = Sim.Metrics.create () in
  (match j with
  | Obj fields ->
      (match mem "counters" fields with
      | Some (Obj counters) ->
          List.iter
            (fun (k, v) -> match v with Int i -> Sim.Metrics.restore_counter m k i | _ -> ())
            counters
      | _ -> ());
      (match mem "promotions_by_level" fields with
      | Some (Arr levels) ->
          List.iteri
            (fun i v ->
              match v with
              | Int n when i < Array.length m.Sim.Metrics.promotions_by_level ->
                  m.Sim.Metrics.promotions_by_level.(i) <- n
              | _ -> ())
            levels
      | _ -> ());
      (match mem "overhead" fields with
      | Some (Obj kinds) ->
          List.iter
            (fun (k, v) -> match v with Int i -> Sim.Metrics.restore_overhead m k i | _ -> ())
            kinds
      | _ -> ())
  | _ -> ());
  m

let result_to_json (r : Sim.Run_result.t) =
  let base =
    [
      ("makespan", Int r.Sim.Run_result.makespan);
      ("work_cycles", Int r.Sim.Run_result.work_cycles);
      (* hex float: lossless round-trip for the output checksum *)
      ("fingerprint", Str (Printf.sprintf "%h" r.Sim.Run_result.fingerprint));
      ("dnf", Bool r.Sim.Run_result.dnf);
      ("termination", termination_to_json r.Sim.Run_result.termination);
      ("metrics", metrics_to_json r.Sim.Run_result.metrics);
    ]
  in
  (* Omit optional fields entirely when absent: journal lines stay as small
     as before unless the trial captured events or ran sanitized. *)
  let base =
    match r.Sim.Run_result.sanitizer with
    | None -> base
    | Some s -> base @ [ ("sanitizer", Str s) ]
  in
  match r.Sim.Run_result.trace with
  | [] -> Obj base
  | recs -> Obj (base @ [ ("trace", Obs.Trace.records_to_json recs) ])

let result_of_json j =
  match j with
  | Obj fields ->
      let fingerprint =
        match get_str "fingerprint" fields with
        | Some s -> ( match float_of_string_opt s with Some f -> f | None -> Float.nan)
        | None -> Float.nan
      in
      Some
        {
          Sim.Run_result.makespan = Option.value ~default:0 (get_int "makespan" fields);
          work_cycles = Option.value ~default:0 (get_int "work_cycles" fields);
          fingerprint;
          dnf = Option.value ~default:false (get_bool "dnf" fields);
          termination =
            (match mem "termination" fields with
            | Some t -> termination_of_json t
            | None -> Sim.Run_result.Finished);
          metrics =
            (match mem "metrics" fields with
            | Some m -> metrics_of_json m
            | None -> Sim.Metrics.create ());
          trace =
            (match mem "trace" fields with
            | Some t -> Obs.Trace.records_of_json t
            | None -> []);
          sanitizer = get_str "sanitizer" fields;
        }
  | _ -> None

let entry_to_json e =
  let status_fields =
    match e.status with
    | Completed r -> [ ("status", Str "ok"); ("result", result_to_json r) ]
    | Failed err ->
        [
          ("status", Str "failed");
          ("error_kind", Str (Trial_error.kind err));
          ("error", Str (Trial_error.detail err));
        ]
  in
  to_string
    (Obj
       ([
          ("v", Int version);
          ("key", Str e.key);
          ("bench", Str e.bench);
          ("tag", Str e.tag);
          ("scale", Float e.scale);
          ("workers", Int e.workers);
          ("seed", Int e.seed);
        ]
       @ status_fields))

let entry_of_json line =
  match parse line with
  | exception Parse_error msg -> Error msg
  | Obj fields -> (
      if get_int "v" fields <> Some version then Error "version mismatch"
      else
        let str k = get_str k fields in
        match (str "key", str "bench", str "tag", str "status") with
        | Some key, Some bench, Some tag, Some status_str -> (
            let base status =
              Ok
                {
                  key;
                  bench;
                  tag;
                  scale = Option.value ~default:1.0 (get_float "scale" fields);
                  workers = Option.value ~default:0 (get_int "workers" fields);
                  seed = Option.value ~default:0 (get_int "seed" fields);
                  status;
                }
            in
            match status_str with
            | "ok" -> (
                match mem "result" fields with
                | Some rj -> (
                    match result_of_json rj with
                    | Some r -> base (Completed r)
                    | None -> Error "bad result payload")
                | None -> Error "missing result")
            | "failed" ->
                let kind = Option.value ~default:"crash" (str "error_kind") in
                let detail = Option.value ~default:"" (str "error") in
                base (Failed (Trial_error.make ~kind detail))
            | other -> Error (Printf.sprintf "unknown status %s" other))
        | _ -> Error "missing required fields")
  | _ -> Error "top level is not an object"
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* The journal itself.                                                 *)
(* ------------------------------------------------------------------ *)

type t = {
  path : string;
  table : (string, entry) Hashtbl.t;
  out : out_channel;
  mutable loaded : int;
  mutable hits : int;
  mutable appended : int;
  mutable skipped_lines : int;
}

let load_existing table path =
  let loaded = ref 0 and skipped = ref 0 in
  (if Sys.file_exists path then
     let ic = open_in path in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () ->
         try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match entry_of_json line with
               | Ok e ->
                   Hashtbl.replace table e.key e;
                   incr loaded
               | Error _ -> incr skipped
           done
         with End_of_file -> ()));
  (!loaded, !skipped)

let create ~path ~resume =
  let table = Hashtbl.create 256 in
  let loaded, skipped_lines = if resume then load_existing table path else (0, 0) in
  (* On resume we rewrite the journal from the parsed entries: torn lines
     from a previous kill are dropped and the file stays one-valid-JSON-
     object-per-line. Without resume the journal starts fresh. *)
  let out = open_out path in
  Hashtbl.iter (fun _ e -> output_string out (entry_to_json e ^ "\n")) table;
  flush out;
  { path; table; out; loaded; hits = 0; appended = 0; skipped_lines }

let path t = t.path

let loaded t = t.loaded

let hits t = t.hits

let appended t = t.appended

let skipped_lines t = t.skipped_lines

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      Some e
  | None -> None

let record t e =
  Hashtbl.replace t.table e.key e;
  output_string t.out (entry_to_json e ^ "\n");
  flush t.out;
  t.appended <- t.appended + 1

let close t = close_out_noerr t.out
