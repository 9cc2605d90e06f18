open Trace

let pid = 1

let common ~name ~ph ~ts ~tid extra =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("ph", Json.Str ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ extra)

let instant ~name ~ts ~tid args =
  common ~name ~ph:"i" ~ts ~tid
    (("s", Json.Str "t") :: (match args with [] -> [] | _ -> [ ("args", Json.Obj args) ]))

let event_to_json (r : record) =
  let tid = Stdlib.max 0 r.worker in
  match r.event with
  | Interval { t0; kind } ->
      [ common ~name:kind ~ph:"X" ~ts:t0 ~tid [ ("dur", Json.Int (r.time - t0)) ] ]
  | Promotion { level } ->
      [ instant ~name:(event_name r.event) ~ts:r.time ~tid [ ("level", Json.Int level) ] ]
  | Chunk_update { key; chunk } ->
      [
        instant ~name:(event_name r.event) ~ts:r.time ~tid
          [ ("key", Json.Int key); ("chunk", Json.Int chunk) ];
        common ~name:"chunk-size" ~ph:"C" ~ts:r.time ~tid
          [ ("args", Json.Obj [ ("chunk", Json.Int chunk) ]) ];
      ]
  | Fault_injected f ->
      let args =
        ("kind", Json.Str (fault_tag f))
        :: (match f with
           | Beat_delayed j -> [ ("cycles", Json.Int j) ]
           | Stall c -> [ ("cycles", Json.Int c) ]
           | Beat_dropped | Steal_failed | Wakeup_delayed -> [])
      in
      [ instant ~name:(event_name r.event) ~ts:r.time ~tid args ]
  | _ -> [ instant ~name:(event_name r.event) ~ts:r.time ~tid [] ]

let metadata ~process_name workers =
  common ~name:"process_name" ~ph:"M" ~ts:0 ~tid:0
    [ ("args", Json.Obj [ ("name", Json.Str process_name) ]) ]
  :: List.map
       (fun w ->
         common ~name:"thread_name" ~ph:"M" ~ts:0 ~tid:w
           [ ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "worker %d" w)) ]) ])
       workers

let document events =
  Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]

let to_json ?(process_name = "hbc-sim") records =
  let workers = List.sort_uniq compare (List.map (fun r -> Stdlib.max 0 r.worker) records) in
  document (metadata ~process_name workers @ List.concat_map event_to_json records)

let to_string ?process_name records = Json.to_string (to_json ?process_name records)

let instants ~process_name events =
  let track = match events with [] -> [] | _ -> [ 0 ] in
  Json.to_string
    (document
       (metadata ~process_name track
       @ List.map (fun (ts, name) -> instant ~name ~ts ~tid:0 []) events))
