(* Chase-Lev deque. [top] only increases (thief index); [bottom] is owned by
   the owner. Elements live in a circular buffer indexed modulo its size;
   the buffer grows by copying, and old buffers are left to the GC (the
   standard simplification of the dynamic variant in a managed runtime). *)

type 'a buffer = { mask : int; slots : 'a option array }

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  buffer : 'a buffer Atomic.t;
}

let make_buffer log_size =
  let size = 1 lsl log_size in
  { mask = size - 1; slots = Array.make size None }

let create () =
  { top = Atomic.make 0; bottom = Atomic.make 0; buffer = Atomic.make (make_buffer 6) }

let buf_get b i = b.slots.(i land b.mask)

let buf_set b i v = b.slots.(i land b.mask) <- v

let grow t b top bottom =
  let nb = { mask = (2 * (b.mask + 1)) - 1; slots = Array.make (2 * (b.mask + 1)) None } in
  for i = top to bottom - 1 do
    buf_set nb i (buf_get b i)
  done;
  Atomic.set t.buffer nb;
  nb

let push t x =
  let bottom = Atomic.get t.bottom in
  let top = Atomic.get t.top in
  let b = Atomic.get t.buffer in
  let b = if bottom - top > b.mask then grow t b top bottom else b in
  buf_set b bottom (Some x);
  Atomic.set t.bottom (bottom + 1)

let pop t =
  let bottom = Atomic.get t.bottom - 1 in
  let b = Atomic.get t.buffer in
  Atomic.set t.bottom bottom;
  let top = Atomic.get t.top in
  if bottom < top then begin
    (* empty: restore *)
    Atomic.set t.bottom top;
    None
  end
  else begin
    let x = buf_get b bottom in
    if bottom > top then begin
      buf_set b bottom None;
      x
    end
    else begin
      (* last element: race the thieves for it *)
      let won = Atomic.compare_and_set t.top top (top + 1) in
      Atomic.set t.bottom (top + 1);
      if won then begin
        buf_set b bottom None;
        x
      end
      else None
    end
  end

let steal t =
  let top = Atomic.get t.top in
  let bottom = Atomic.get t.bottom in
  if top >= bottom then None
  else begin
    let b = Atomic.get t.buffer in
    let x = buf_get b top in
    if Atomic.compare_and_set t.top top (top + 1) then x else None
  end

let size t = Stdlib.max 0 (Atomic.get t.bottom - Atomic.get t.top)
