(* End-to-end wall-clock benchmark: compile -> run -> verified result, on
   OCaml domains and on the simulator, split by layer.

     hbc_bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out R.json]
       One workload. The last line of stdout is one JSON object with
       [correct], [attempted], [failed] and [metrics]: the end-to-end
       metrics with --trace 0, the per-layer metrics with --trace 1.
     hbc_bench.exe --workload all --seed N [--seconds S] --out R.json
       Every workload, untraced then traced; the result file holds both
       metric sets with run metadata and per-metric sample counts.
     hbc_bench.exe --smoke [--spec BENCHMARK.json]
       One tiny round per workload; checks the metric names against the
       spec, every fingerprint, and that the output parses.
     hbc_bench.exe --compare A B [--repeat] [--spec BENCHMARK.json]
       Applies the spec's bounds to two result files, or two directories
       of result files, one row per workload and metric. --repeat says
       both sides ran the same code, so any move beyond a bound fails.

   Exit status is 1 when any run failed or mismatched its serial
   reference, or when a check or a comparison fails. *)

module Json = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* ---- output ---------------------------------------------------------- *)

let num v = if Float.is_finite v then Json.Float v else Json.Null

(* Raw samples are kept for the end-to-end metrics only, so a reader can
   try other statistics on them. *)
let metric_json ~samples (m : Measure.metric) =
  Json.Obj
    ([
       ("value", num m.value);
       ("unit", Json.Str m.unit);
       ("n", Json.Int m.n);
       ("spread", num m.spread);
     ]
    @ if samples then [ ("samples", Json.Arr (List.map num m.samples)) ] else [])

let metrics_json ?(samples = false) ms =
  Json.Obj (List.map (fun (m : Measure.metric) -> (m.name, metric_json ~samples m)) ms)

let valid (st : Measure.state) ms =
  st.failed = 0
  && List.for_all (fun s -> Measure.passes st.rounds s <> []) Measure.sides
  && List.for_all (fun (m : Measure.metric) -> Float.is_finite m.value) ms

(* One row per metric: the value, the median and sample count behind it,
   and for a tail percentile how many samples lie beyond it. *)
let print_metrics ms =
  List.iter
    (fun (m : Measure.metric) ->
      let beyond =
        if m.pct = 50.0 then ""
        else
          let outside = if m.pct > 50.0 then ( > ) else ( < ) in
          Printf.sprintf "  %d beyond p%g"
            (List.length (List.filter (fun x -> outside x m.value) m.samples))
            m.pct
      in
      Printf.printf "  %-34s %14.4f %-10s median %12.4f  n=%-4d spread %5.1f%%%s\n" m.name m.value
        m.unit (Report.Stats.median m.samples) m.n (100.0 *. m.spread) beyond)
    ms

let workload_json (st : Measure.state) ~e2e ~layers =
  let w = st.w in
  Json.Obj
    ([
       ("name", Json.Str w.name);
       ("programs", Json.Arr (List.map (fun p -> Json.Str p) w.programs));
       ("scale", Json.Float w.scale);
       ("hbc", Json.Str (Spec.engine_to_string w.hbc));
       ("setup_reps", Json.Int (List.length st.setup_s));
       ("rounds", Json.Int (List.length st.rounds));
       ("traced_passes", Json.Int (List.length st.traced));
       ("attempted", Json.Int st.attempted);
       ("failed", Json.Int st.failed);
       ("fail_rate", num (float_of_int st.failed /. float_of_int (max 1 st.attempted)));
       ("correct", Json.Bool (valid st (e2e @ layers)));
       ("end_to_end", metrics_json ~samples:true e2e);
     ]
    @ (if layers = [] then [] else [ ("per_layer", metrics_json layers) ])
    @ [
        ( "per_program",
          Json.Obj (List.map (fun (p, ms) -> (p, metrics_json ms)) (Measure.per_program st)) );
      ])

let report_json ~seed ~seconds ~trace workloads =
  Json.Obj
    [
      ("benchmark", Json.Str "hbc_bench");
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Int trace);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("workloads", Json.Arr workloads);
    ]

let result_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Measure.metric) ->
                  (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit) ]))
                ms) );
       ])

(* ---- the spec (BENCHMARK.json) --------------------------------------- *)

type spec_metric = { s_name : string; s_unit : string; lower_better : bool; bound : float option }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parses s = match Json.parse s with _ -> true | exception Json.Parse_error _ -> false

let parse_file path =
  match Json.parse (read_file path) with
  | Json.Obj fields -> fields
  | _ -> die "%s: not a JSON object" path
  | exception (Sys_error msg | Json.Parse_error msg) -> die "%s: %s" path msg

let spec_metrics spec key =
  match Json.mem key spec with
  | Some (Json.Arr l) ->
      List.map
        (function
          | Json.Obj f -> (
              match (Json.get_str "name" f, Json.get_str "unit" f, Json.get_str "better" f) with
              | Some s_name, Some s_unit, Some better ->
                  let bound = Json.get_float "bound" f in
                  { s_name; s_unit; lower_better = better = "lower"; bound }
              | _ -> die "spec: malformed %s entry" key)
          | _ -> die "spec: malformed %s entry" key)
        l
  | _ -> die "spec: no %s list" key

(* ---- modes ----------------------------------------------------------- *)

let run_mode ~workload ~seed ~seconds ~trace ~out =
  let chosen =
    match workload with
    | "all" -> Spec.all
    | name -> ( match Spec.find name with Some w -> [ w ] | None -> die "unknown workload %s" name)
  in
  let all = workload = "all" in
  (* A single run measures for [seconds] in total; with --trace 1 half of
     it is the traced pass. The all-workloads report adds a traced pass of
     half the untraced length to each workload. *)
  let untraced_s, traced_s =
    if all then (seconds, Some (seconds /. 2.0))
    else if trace = 1 then (seconds /. 2.0, Some (seconds /. 2.0))
    else (seconds, None)
  in
  let results =
    List.map
      (fun (w : Spec.t) ->
        let st = Measure.run w ~seed ~reps:10 ~scale_factor:1.0 ~untraced_s ~traced_s in
        let e2e = Measure.end_to_end st in
        let layers = if traced_s = None then [] else Measure.per_layer st in
        Printf.printf
          "workload %s: %s, scale %g, serial vs HBC on %s, seed %d, %d rounds + %d traced \
           passes, nproc %d, OCaml %s\n"
          w.name (String.concat " " w.programs) w.scale (Spec.engine_to_string w.hbc) seed
          (List.length st.rounds) (List.length st.traced) (Domain.recommended_domain_count ())
          Sys.ocaml_version;
        print_metrics (e2e @ layers);
        Printf.printf "  runs: %d attempted, %d failed\n%!" st.attempted st.failed;
        (st, e2e, layers))
      chosen
  in
  Option.iter
    (fun path ->
      let j =
        report_json ~seed ~seconds ~trace
          (List.map (fun (st, e2e, layers) -> workload_json st ~e2e ~layers) results)
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string j ^ "\n")))
    out;
  let correct = List.for_all (fun (st, e2e, layers) -> valid st (e2e @ layers)) results in
  let attempted = List.fold_left (fun a (st, _, _) -> a + st.Measure.attempted) 0 results in
  let failed = List.fold_left (fun a (st, _, _) -> a + st.Measure.failed) 0 results in
  let shown =
    match results with
    | [ (_, e2e, layers) ] when not all -> if trace = 1 then layers else e2e
    | _ ->
        List.concat_map
          (fun ((st : Measure.state), e2e, layers) ->
            List.map
              (fun (m : Measure.metric) -> { m with name = st.w.name ^ "/" ^ m.name })
              (e2e @ layers))
          results
  in
  print_endline (result_line ~correct ~attempted ~failed shown);
  if not correct then exit 1

(* Small enough that every workload's round takes well under a second. *)
let smoke_scale = 0.1

let smoke_mode ~spec_path =
  let spec = parse_file spec_path in
  let e2e_spec = spec_metrics spec "end_to_end" and layer_spec = spec_metrics spec "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let spec_workloads =
    match Json.mem "workloads" spec with
    | Some (Json.Arr l) ->
        List.filter_map (function Json.Obj f -> Json.get_str "name" f | _ -> None) l
    | _ -> []
  in
  if spec_workloads <> List.map (fun (w : Spec.t) -> w.name) Spec.all then
    problem "spec workloads %s differ from the benchmark's" (String.concat "," spec_workloads);
  let agree ~wname kind expected (ms : Measure.metric list) =
    let names l = List.sort compare l in
    if
      names (List.map (fun s -> s.s_name) expected)
      <> names (List.map (fun (m : Measure.metric) -> m.name) ms)
    then problem "%s: emitted %s metrics differ from the spec" wname kind;
    List.iter
      (fun s ->
        match List.find_opt (fun (m : Measure.metric) -> m.name = s.s_name) ms with
        | Some m when m.unit <> s.s_unit ->
            problem "%s: %s has unit %s, spec says %s" wname s.s_name m.unit s.s_unit
        | Some m when not (Float.is_finite m.value) -> problem "%s: %s is not finite" wname s.s_name
        | _ -> ())
      expected
  in
  let workloads =
    List.map
      (fun (w : Spec.t) ->
        let st =
          Measure.run w ~seed:1 ~reps:1 ~scale_factor:smoke_scale ~untraced_s:0.0
            ~traced_s:(Some 0.0)
        in
        let e2e = Measure.end_to_end st and layers = Measure.per_layer st in
        agree ~wname:w.name "end-to-end" e2e_spec e2e;
        agree ~wname:w.name "per-layer" layer_spec layers;
        if not (valid st (e2e @ layers)) then
          problem "%s: %d of %d runs failed" w.name st.failed st.attempted;
        List.iter
          (fun ms ->
            if not (parses (result_line ~correct:true ~attempted:st.attempted ~failed:0 ms)) then
              problem "%s: result line does not parse" w.name)
          [ e2e; layers ];
        workload_json st ~e2e ~layers)
      Spec.all
  in
  if not (parses (Json.to_string (report_json ~seed:1 ~seconds:0.0 ~trace:1 workloads))) then
    problem "the result file does not parse";
  match List.rev !problems with
  | [] ->
      Printf.printf "smoke: ok, %d end-to-end and %d per-layer metrics on %d workloads\n"
        (List.length e2e_spec) (List.length layer_spec) (List.length Spec.all)
  | ps ->
      List.iter (fun p -> Printf.printf "smoke: %s\n" p) ps;
      exit 1

(* The metrics of a result file, or of every result file in a directory,
   as ((workload, section, metric), fields) rows. *)
let load_side path =
  let files =
    match Sys.is_directory path with
    | true ->
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort compare
        |> List.map (Filename.concat path)
    | false -> [ path ]
    | exception Sys_error msg -> die "%s" msg
  in
  let rows file =
    match Json.mem "workloads" (parse_file file) with
    | Some (Json.Arr ws) ->
        List.concat_map
          (function
            | Json.Obj w ->
                let wname = Option.value (Json.get_str "name" w) ~default:"?" in
                List.concat_map
                  (fun section ->
                    match Json.mem section w with
                    | Some (Json.Obj ms) ->
                        List.filter_map
                          (function
                            | name, Json.Obj f -> Some ((wname, section, name), f) | _ -> None)
                          ms
                    | _ -> [])
                  [ "end_to_end"; "per_layer" ]
            | _ -> [])
          ws
    | _ -> die "%s: no workloads" file
  in
  (List.length files, List.concat_map rows files)

(* One side's view of a metric: each run's value, every run's raw
   samples (end-to-end metrics only), and whether no run's samples
   varied. *)
let side_values rows key =
  let fs = List.filter_map (fun (k, f) -> if k = key then Some f else None) rows in
  let get k f = Option.value (Json.get_float k f) ~default:Float.nan in
  let samples f =
    match Json.mem "samples" f with
    | Some (Json.Arr l) ->
        List.filter_map
          (function Json.Float x -> Some x | Json.Int i -> Some (float_of_int i) | _ -> None)
          l
    | _ -> []
  in
  ( List.map (get "value") fs,
    List.concat_map samples fs,
    List.for_all (fun f -> get "spread" f = 0.0) fs )

(* The noise of a comparison is measured over both sides pooled, so two
   sides that each repeat well but sit on different levels read as
   noisy: the interquartile spread over the median of the runs' values
   when each side has two or more runs, else of the runs' raw samples.

   A change inside the bound is ok, beyond it worse or better, unless the
   noise is itself wider than the bound (unresolved). In a repeat check
   (both sides the same code) any change beyond the bound means the
   benchmark did not repeat, so it reads unresolved too. Per-layer
   metrics have no bound; those whose samples never varied must repeat
   exactly. *)
let compare_mode ~spec_path ~repeat a b =
  let e2e_spec = spec_metrics (parse_file spec_path) "end_to_end" in
  let na, ra = load_side a and nb, rb = load_side b in
  let keys =
    List.rev (List.fold_left (fun ks (k, _) -> if List.mem k ks then ks else k :: ks) [] ra)
  in
  let failing = ref 0 in
  let runs n = if n = 1 then "1 run" else Printf.sprintf "%d runs" n in
  Printf.printf "A: %s (%s)  B: %s (%s)%s\n" a (runs na) b (runs nb)
    (if repeat then ", repeat check" else "");
  Printf.printf "%-14s %-28s %14s %14s %8s %7s %7s  %s\n" "workload" "metric" "A" "B" "change"
    "bound" "noise" "verdict";
  List.iter
    (fun ((wname, section, name) as key) ->
      if List.mem_assoc key rb then begin
        let vals_a, samples_a, exact_a = side_values ra key
        and vals_b, samples_b, exact_b = side_values rb key in
        let va = Report.Stats.median vals_a and vb = Report.Stats.median vals_b in
        let change = if va = 0.0 then 0.0 else (vb -. va) /. Float.abs va in
        let row ~bound ~noise verdict =
          Printf.printf "%-14s %-28s %14.4f %14.4f %7.1f%% %7s %7s  %s\n" wname name va vb
            (100.0 *. change) bound noise verdict
        in
        match List.find_opt (fun s -> s.s_name = name) e2e_spec with
        | Some { bound = Some bound; lower_better; _ } when section = "end_to_end" ->
            let noise =
              Measure.iqr_rel
                (if List.length vals_a >= 2 && List.length vals_b >= 2 then vals_a @ vals_b
                 else samples_a @ samples_b)
            in
            let worse_by = if lower_better then change else -.change in
            let verdict =
              if noise > bound || (repeat && Float.abs change > bound) then "unresolved"
              else if worse_by > bound then "worse"
              else if -.worse_by > bound then "better"
              else "ok"
            in
            if verdict = "worse" || (repeat && verdict <> "ok") then incr failing;
            row
              ~bound:(Printf.sprintf "%6.1f%%" (100.0 *. bound))
              ~noise:(Printf.sprintf "%6.1f%%" (100.0 *. noise))
              verdict
        | _ ->
            row ~bound:"-" ~noise:"-"
              (if not (exact_a && exact_b) then "info" else if va = vb then "same" else "differs")
      end)
    keys;
  if !failing > 0 then exit 1

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let out = ref None and spec = ref "BENCHMARK.json" and smoke = ref false in
  let compare = ref None and repeat = ref false in
  let cmp_a = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run, or all (default)");
      ("--seed", Arg.Set_int seed, "N  round order and runtime seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 25)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> trace := int_of_string s),
        " 1: report the per-layer metrics" );
      ("--out", Arg.String (fun p -> out := Some p), "PATH  write the full result file");
      ("--spec", Arg.Set_string spec, "PATH  BENCHMARK.json, for --smoke and --compare");
      ("--smoke", Arg.Set smoke, " one tiny round per workload, checked against the spec");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string cmp_a; Arg.String (fun b -> compare := Some (!cmp_a, b)) ],
        "A B  compare two result files, or two directories of them, under the spec's bounds" );
      ("--repeat", Arg.Set repeat, " with --compare: A and B ran the same code");
    ]
  in
  Arg.parse specs (fun a -> die "unexpected argument %s" a) "hbc_bench.exe [options]";
  if !seconds < 0.0 then die "--seconds must be >= 0";
  match (!smoke, !compare) with
  | true, _ -> smoke_mode ~spec_path:!spec
  | false, Some (a, b) -> compare_mode ~spec_path:!spec ~repeat:!repeat a b
  | false, None ->
      run_mode ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
