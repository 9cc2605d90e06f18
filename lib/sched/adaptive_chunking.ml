(* The window is kept as what the update rule reads of it: how many
   intervals it has closed, and the least poll count among them. *)
type t = {
  target : int;
  window : int;
  mutable chunk : int;
  mutable polls : int;  (* since last heartbeat *)
  mutable logged : int;  (* intervals closed in the current window *)
  mutable min_logged : int;  (* least poll count among them; [max_int] when none *)
}

let create ?(initial_chunk = 1) ~target_polls ~window () =
  if target_polls < 1 then invalid_arg "Adaptive_chunking.create: target_polls < 1";
  if window < 1 then invalid_arg "Adaptive_chunking.create: window < 1";
  {
    target = target_polls;
    window;
    chunk = Int.max 1 initial_chunk;
    polls = 0;
    logged = 0;
    min_logged = max_int;
  }

let chunk_size t = t.chunk

let on_poll t = t.polls <- t.polls + 1

type decision = { old_chunk : int; new_chunk : int; min_polls : int }

(* Close the current interval into the window. *)
let log_interval t =
  t.logged <- t.logged + 1;
  t.min_logged <- Int.min t.min_logged t.polls;
  t.polls <- 0

(* The window is full: commit the update rule, reset the window, and return
   the window minimum (the rule's other input, for observability). *)
let close_window t =
  let minimum = t.min_logged in
  t.logged <- 0;
  t.min_logged <- max_int;
  let ratio = Float.of_int minimum /. Float.of_int t.target in
  t.chunk <- Int.max 1 (int_of_float (Float.round (Float.of_int t.chunk *. ratio)));
  minimum

(* Hot path: allocates nothing beyond the returned [Some] (the sanitizer's
   {!decision} record is only built by {!on_heartbeat_full}, which callers
   reserve for trace-capturing runs). *)
let on_heartbeat t =
  log_interval t;
  if t.logged >= t.window then begin
    ignore (close_window t : int);
    Some t.chunk
  end
  else None

let on_heartbeat_full t =
  let old_chunk = t.chunk in
  log_interval t;
  if t.logged >= t.window then begin
    let min_polls = close_window t in
    Some { old_chunk; new_chunk = t.chunk; min_polls }
  end
  else None

let polls_since_heartbeat t = t.polls

let intervals_logged t = t.logged
