type ctx = { mutable acc : Report.metric list (* newest first *) }

let det ctx name value = ctx.acc <- { Report.metric = name; value } :: ctx.acc

let deti ctx name value = det ctx name (float_of_int value)

(* Words allocated by [f]: the minor counter is a pure allocation count,
   so it does not depend on when the GC chose to run.

   [Gc.minor_words ()] reads the young pointer and is exact. The forced
   collection, the [quick_stat] read and the pair are what earlier builds
   sampled to price direct major allocations; the words they allocate fall
   inside the measured window, as do the metric records the body reports
   through [det], so every committed [alloc_minor_words] baseline value
   includes them. Keep the sequence as it is, or those baselines shift by
   a constant.

   Reproducibility, measured across processes: minor words are exact and
   bit-stable for plain OCaml code, but bodies that run effect-handler
   fibers see tens of words of minor jitter from the fiber machinery. So
   callers whose body enters the executor pass [~det_alloc:false] and the
   probe records no allocation at all — gating hard on a nondeterministic
   counter would make the perf gate flaky. *)
let sample () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (Gc.minor_words (), s.Gc.major_words -. s.Gc.promoted_words)

let run ~name ?(det_alloc = true) f =
  let ctx = { acc = [] } in
  if det_alloc then begin
    let minor0, _ = sample () in
    f ctx;
    let minor1, _ = sample () in
    det ctx "alloc_minor_words" (minor1 -. minor0)
  end
  else f ctx;
  { Report.probe = name; metrics = List.rev ctx.acc }
