(* A paused run's observational state, captured at the executor's pause
   boundary. OCaml effect continuations cannot be serialized, so this is
   not the mechanism that *restores* a run — resume re-executes the job
   from cycle 0 under the same seed (determinism makes that byte-exact)
   and uses this record to prove, field by field, that the replay reached
   the identical boundary before continuing past it. The codec is
   byte-stable: equal states serialize to equal strings, so digests can
   stand in for whole checkpoints in journals and WALs. *)

type slice = { sl_worker : int; sl_task : int; sl_nest : string; sl_lo : int; sl_hi : int }

type t = {
  at_cycle : int;
  episode : int;
  rng_state : int64;
  next_task_id : int;
  work_cycles : int;
  promotions_used : int;
  granted : int option;
  regrants : (int * int) list;
  clocks : int array;
  deques : int list array;
  slices : slice list;
}

let slice_to_json s =
  Obs.Json.Arr
    [
      Obs.Json.Int s.sl_worker;
      Obs.Json.Int s.sl_task;
      Obs.Json.Str s.sl_nest;
      Obs.Json.Int s.sl_lo;
      Obs.Json.Int s.sl_hi;
    ]

let slice_of_json = function
  | Obs.Json.Arr
      [
        Obs.Json.Int sl_worker;
        Obs.Json.Int sl_task;
        Obs.Json.Str sl_nest;
        Obs.Json.Int sl_lo;
        Obs.Json.Int sl_hi;
      ] ->
      Ok { sl_worker; sl_task; sl_nest; sl_lo; sl_hi }
  | _ -> Error "malformed checkpoint slice"

let to_json t =
  let ints l = Obs.Json.Arr (List.map (fun i -> Obs.Json.Int i) l) in
  Obs.Json.Obj
    [
      ("v", Obs.Json.Int 1);
      ("at_cycle", Obs.Json.Int t.at_cycle);
      ("episode", Obs.Json.Int t.episode);
      (* Full 64-bit state: Json.Int is a 63-bit OCaml int, so the raw
         generator word travels as a decimal string. *)
      ("rng", Obs.Json.Str (Int64.to_string t.rng_state));
      ("next_task_id", Obs.Json.Int t.next_task_id);
      ("work_cycles", Obs.Json.Int t.work_cycles);
      ("promotions_used", Obs.Json.Int t.promotions_used);
      ( "granted",
        match t.granted with None -> Obs.Json.Null | Some g -> Obs.Json.Int g );
      ( "regrants",
        Obs.Json.Arr
          (List.map
             (fun (cycle, grant) -> Obs.Json.Arr [ Obs.Json.Int cycle; Obs.Json.Int grant ])
             t.regrants) );
      ("clocks", ints (Array.to_list t.clocks));
      ("deques", Obs.Json.Arr (Array.to_list (Array.map ints t.deques)));
      ("slices", Obs.Json.Arr (List.map slice_to_json t.slices));
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  match j with
  | Obj fields ->
      let int name = Option.to_result ~none:("missing field " ^ name) (get_int name fields) in
      let* v = int "v" in
      if v <> 1 then Error (Printf.sprintf "unsupported checkpoint version %d" v)
      else
        let* at_cycle = int "at_cycle" in
        let* episode = int "episode" in
        let* rng_state =
          match get_str "rng" fields with
          | Some s -> (
              match Int64.of_string_opt s with
              | Some i -> Ok i
              | None -> Error "bad rng state")
          | None -> Error "missing field rng"
        in
        let* next_task_id = int "next_task_id" in
        let* work_cycles = int "work_cycles" in
        let* promotions_used = int "promotions_used" in
        let* granted =
          match mem "granted" fields with
          | Some Null -> Ok None
          | Some (Int g) -> Ok (Some g)
          | _ -> Error "missing field granted"
        in
        let* regrants =
          match mem "regrants" fields with
          | Some (Arr l) ->
              List.fold_left
                (fun acc j ->
                  let* acc = acc in
                  match j with
                  | Arr [ Int cycle; Int grant ] -> Ok ((cycle, grant) :: acc)
                  | _ -> Error "bad regrants")
                (Ok []) l
              |> Result.map List.rev
          | _ -> Error "missing field regrants"
        in
        let ints name =
          match mem name fields with
          | Some (Arr l) ->
              List.fold_left
                (fun acc j ->
                  let* acc = acc in
                  match j with Int i -> Ok (i :: acc) | _ -> Error ("bad " ^ name))
                (Ok []) l
              |> Result.map List.rev
          | _ -> Error ("missing field " ^ name)
        in
        let* clocks = ints "clocks" in
        let* deques =
          match mem "deques" fields with
          | Some (Arr l) ->
              List.fold_left
                (fun acc j ->
                  let* acc = acc in
                  match j with
                  | Arr l ->
                      let* ids =
                        List.fold_left
                          (fun acc j ->
                            let* acc = acc in
                            match j with Int i -> Ok (i :: acc) | _ -> Error "bad deque entry")
                          (Ok []) l
                      in
                      Ok (List.rev ids :: acc)
                  | _ -> Error "bad deques")
                (Ok []) l
              |> Result.map List.rev
          | _ -> Error "missing field deques"
        in
        let* slices =
          match mem "slices" fields with
          | Some (Arr l) ->
              List.fold_left
                (fun acc j ->
                  let* acc = acc in
                  let* s = slice_of_json j in
                  Ok (s :: acc))
                (Ok []) l
              |> Result.map List.rev
          | _ -> Error "missing field slices"
        in
        Ok
          {
            at_cycle;
            episode;
            rng_state;
            next_task_id;
            work_cycles;
            promotions_used;
            granted;
            regrants;
            clocks = Array.of_list clocks;
            deques = Array.of_list deques;
            slices;
          }
  | _ -> Error "checkpoint must be a JSON object"

let to_string t = Obs.Json.to_string (to_json t)

let of_string s =
  match Obs.Json.parse s with
  | j -> of_json j
  | exception Obs.Json.Parse_error msg -> Error ("checkpoint parse error: " ^ msg)

let equal a b = String.equal (to_string a) (to_string b)

let digest t = Digest.to_hex (Digest.string (to_string t))

let remaining_iterations t = List.fold_left (fun acc s -> acc + (s.sl_hi - s.sl_lo)) 0 t.slices

let describe t =
  Printf.sprintf "checkpoint@%d ep=%d tasks=%d live-slices=%d remaining-iters=%d" t.at_cycle
    t.episode t.next_task_id (List.length t.slices) (remaining_iterations t)
