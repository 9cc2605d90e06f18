(* Binary min-heap over (time, seq) for the virtual-time engine.

   A queued event is two unboxed ints held in two parallel arrays: its
   time, and a tag that packs seq above a [code_bits]-bit payload code,
   [tag = seq lsl code_bits lor code]. Seqs are unique, so comparing
   tags compares seqs, and a heap level compares and moves two words.
   Unique seqs also make (time, seq) a total order: the pop sequence
   does not depend on the heap's shape. A push or pop touches no boxed
   value and, once the arrays have grown to the run's peak population,
   allocates nothing. The engine keeps at most one resume per worker
   plus its pending timers and callbacks here, so the heap stays small
   and O(log n) sifts are cheap. A yielding worker's handoff pushes its
   resume and pops the top in one sift-down ([replace_top]).

   Codes must be below 2^20 (the engine's codes are its worker count
   plus its live callback slots), and seqs below 2^42, so a tag stays a
   non-negative 63-bit int; [push] asserts both. *)

type t = {
  mutable time : int array;
  mutable tag : int array;
  mutable size : int;
}

let code_bits = 20

let code_mask = (1 lsl code_bits) - 1

let max_seq = 1 lsl (Sys.int_size - 1 - code_bits)

let initial_capacity = 64

let create () =
  { time = Array.make initial_capacity 0; tag = Array.make initial_capacity 0; size = 0 }

let is_empty q = q.size = 0

let length q = q.size

let grow q =
  let cap = 2 * Array.length q.time in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.time <- extend q.time;
  q.tag <- extend q.tag

(* Sift an event up from the hole at [i]: parents later than it shift
   down into the hole, and the event is written once where the hole
   stops. *)
let place q i ~time ~tag =
  let times = q.time and tags = q.tag in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = times.(p) in
    if time < tp || (time = tp && tag < tags.(p)) then begin
      times.(!i) <- tp;
      tags.(!i) <- tags.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  tags.(!i) <- tag

let push q ~time ~seq ~code =
  assert (code >= 0 && code <= code_mask);
  assert (seq >= 0 && seq < max_seq);
  if q.size = Array.length q.time then grow q;
  place q q.size ~time ~tag:((seq lsl code_bits) lor code);
  q.size <- q.size + 1

let top_time q = q.time.(0)

let top_seq q = q.tag.(0) lsr code_bits

let top_code q = q.tag.(0) land code_mask

(* Floyd's deletion: the root's hole walks down along the earlier child
   to a leaf, then the last event is placed from there. The last event
   is usually among the latest, so it rarely climbs, and the walk costs
   one comparison per level instead of two. *)
let drop q =
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let times = q.time and tags = q.tag in
    let i = ref 0 in
    while (2 * !i) + 1 < n do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c =
        if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && tags.(r) < tags.(l)))
        then r
        else l
      in
      times.(!i) <- times.(c);
      tags.(!i) <- tags.(c);
      i := c
    done;
    place q !i ~time:times.(n) ~tag:tags.(n)
  end

(* Drop the top and push (time, seq, code) in one pass: the new event
   takes the root's hole and sifts down, stopping at the first level
   whose earlier child is not before it. When the new event is not
   earlier than the top, this is also push followed by [drop], at half
   the sifting. *)
let replace_top q ~time ~seq ~code =
  assert (code >= 0 && code <= code_mask);
  assert (seq >= 0 && seq < max_seq);
  let tag = (seq lsl code_bits) lor code in
  let n = q.size in
  let times = q.time and tags = q.tag in
  let i = ref 0 in
  let continue = ref true in
  while !continue && (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c =
      if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && tags.(r) < tags.(l)))
      then r
      else l
    in
    let tc = times.(c) in
    if tc < time || (tc = time && tags.(c) < tag) then begin
      times.(!i) <- tc;
      tags.(!i) <- tags.(c);
      i := c
    end
    else continue := false
  done;
  times.(!i) <- time;
  tags.(!i) <- tag
