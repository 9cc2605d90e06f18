type t = { bytes_per_cycle : float; mutable free_at : float }

let create ~bytes_per_cycle =
  assert (bytes_per_cycle > 0.0);
  { bytes_per_cycle; free_at = 0.0 }

let serve t ~now ~compute ~bytes =
  if bytes <= 0 then compute
  else begin
    let mem_cycles = Float.of_int bytes /. t.bytes_per_cycle in
    let start = Float.max t.free_at (Float.of_int now) in
    let finish_mem = start +. mem_cycles in
    t.free_at <- finish_mem;
    let mem_total = int_of_float (Float.ceil (finish_mem -. Float.of_int now)) in
    Int.max compute mem_total
  end

let reset t = t.free_at <- 0.0

let busy_until t = t.free_at
