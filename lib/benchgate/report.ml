type metric = { metric : string; value : float }

type probe = { probe : string; metrics : metric list }

type t = {
  schema : int;
  label : string;
  notes : (string * string) list;
  probes : probe list;
}

let schema_version = 2

let make ?(notes = []) ~label probes = { schema = schema_version; label; notes; probes }

let find_probe t name = List.find_opt (fun p -> p.probe = name) t.probes

let find_metric p name = List.find_opt (fun m -> m.metric = name) p.metrics

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let metric_to_json m =
  Obs.Json.Obj [ ("metric", Obs.Json.Str m.metric); ("value", Obs.Json.Float m.value) ]

let probe_to_json p =
  Obs.Json.Obj
    [
      ("probe", Obs.Json.Str p.probe);
      ("metrics", Obs.Json.Arr (List.map metric_to_json p.metrics));
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Int t.schema);
      ("label", Obs.Json.Str t.label);
      ("notes", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Str v)) t.notes));
      ("probes", Obs.Json.Arr (List.map probe_to_json t.probes));
    ]

let metric_of_json = function
  | Obs.Json.Obj fields ->
      let metric =
        match Obs.Json.get_str "metric" fields with
        | Some n -> n
        | None -> fail "metric without a name"
      in
      let value =
        match Obs.Json.get_float "value" fields with
        | Some v -> v
        | None -> fail "metric %S without a numeric value" metric
      in
      { metric; value }
  | _ -> fail "metric is not an object"

let probe_of_json = function
  | Obs.Json.Obj fields ->
      let probe =
        match Obs.Json.get_str "probe" fields with
        | Some n -> n
        | None -> fail "probe without a name"
      in
      let metrics =
        match Obs.Json.mem "metrics" fields with
        | Some (Obs.Json.Arr ms) -> List.map metric_of_json ms
        | _ -> fail "probe %S without a metrics array" probe
      in
      { probe; metrics }
  | _ -> fail "probe is not an object"

let of_json = function
  | Obs.Json.Obj fields ->
      let schema =
        match Obs.Json.get_int "schema" fields with
        | Some v -> v
        | None -> fail "report without a schema field"
      in
      if schema <> schema_version then
        fail "unsupported report schema %d (this build reads %d)" schema schema_version;
      let label = Option.value ~default:"" (Obs.Json.get_str "label" fields) in
      let notes =
        match Obs.Json.mem "notes" fields with
        | Some (Obs.Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> match v with Obs.Json.Str s -> Some (k, s) | _ -> None)
              kvs
        | _ -> []
      in
      let probes =
        match Obs.Json.mem "probes" fields with
        | Some (Obs.Json.Arr ps) -> List.map probe_of_json ps
        | _ -> fail "report without a probes array"
      in
      { schema; label; notes; probes }
  | _ -> fail "report top level is not an object"

let to_string t = Obs.Json.to_string (to_json t)

let of_string s = of_json (Obs.Json.parse s)

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (String.trim (really_input_string ic (in_channel_length ic))))
