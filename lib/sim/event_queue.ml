(* Binary min-heap over (time, seq) for the virtual-time engine.

   A queued event is three unboxed ints held in three parallel arrays,
   so a push or pop touches no boxed value and, once the arrays have
   grown to the run's peak population, allocates nothing. The engine
   keeps at most one resume per worker plus its pending timers and
   callbacks here, so the heap stays small and O(log n) sifts are
   cheap. [seq] is unique, which makes (time, seq) a total order: the
   pop sequence does not depend on the heap's shape. *)

type t = {
  mutable time : int array;
  mutable seq : int array;
  mutable code : int array;
  mutable size : int;
}

let initial_capacity = 64

let create () =
  {
    time = Array.make initial_capacity 0;
    seq = Array.make initial_capacity 0;
    code = Array.make initial_capacity 0;
    size = 0;
  }

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
  q.seq <- extend q.seq;
  q.code <- extend q.code

(* Sift an event up from the hole at [i]: parents later than it shift
   down into the hole, and the event is written once where the hole
   stops. *)
let place q i ~time ~seq ~code =
  let times = q.time and seqs = q.seq and codes = q.code in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = times.(p) in
    if time < tp || (time = tp && seq < seqs.(p)) then begin
      times.(!i) <- tp;
      seqs.(!i) <- seqs.(p);
      codes.(!i) <- codes.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  codes.(!i) <- code

let push q ~time ~seq ~code =
  if q.size = Array.length q.time then grow q;
  place q q.size ~time ~seq ~code;
  q.size <- q.size + 1

let top_time q = q.time.(0)

let top_seq q = q.seq.(0)

let top_code q = q.code.(0)

(* Floyd's deletion: the root's hole walks down along the earlier child
   to a leaf, then the last event is placed from there. The last event
   is usually among the latest, so it rarely climbs, and the walk costs
   one comparison per level instead of two. *)
let drop q =
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let times = q.time and seqs = q.seq and codes = q.code in
    let i = ref 0 in
    while (2 * !i) + 1 < n do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c =
        if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      times.(!i) <- times.(c);
      seqs.(!i) <- seqs.(c);
      codes.(!i) <- codes.(c);
      i := c
    done;
    place q !i ~time:times.(n) ~seq:seqs.(n) ~code:codes.(n)
  end
