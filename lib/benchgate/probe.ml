type ctx = { mutable acc : Report.metric list (* newest first *) }

let det ctx name value =
  ctx.acc <- { Report.metric = name; value; kind = Report.Deterministic } :: ctx.acc

let deti ctx name value = det ctx name (float_of_int value)

let adv ctx name value =
  ctx.acc <- { Report.metric = name; value; kind = Report.Advisory } :: ctx.acc

(* Words allocated by [f]: the minor counter is a pure allocation count;
   subtracting promoted words from the major counter leaves only direct
   major-heap allocations, so neither number depends on when the GC chose
   to run.

   [Gc.minor_words ()] reads the young pointer and is exact; the
   [quick_stat] major/promoted counters are only flushed at a minor
   collection (stale mid-region on OCaml 5), so force one before each
   sample — the promotion it causes cancels out of [major - promoted].

   Reproducibility, measured across processes: minor words are exact
   and bit-stable for plain OCaml code, but the major delta jitters by a
   handful of words (runtime-internal major allocations leak into it),
   and bodies that run effect-handler fibers see tens of words of minor
   jitter from the fiber machinery. So [alloc_major_words] is always
   advisory, and callers whose body enters the executor pass
   [~det_alloc:false] to downgrade [alloc_minor_words] too — gating
   hard on a nondeterministic counter would make the perf gate flaky. *)
let sample () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (Gc.minor_words (), s.Gc.major_words -. s.Gc.promoted_words)

let run ~name ?(det_alloc = true) f =
  let ctx = { acc = [] } in
  let minor0, major0 = sample () in
  let t0 = Monotonic_clock.now () in
  f ctx;
  let t1 = Monotonic_clock.now () in
  let minor1, major1 = sample () in
  let minor = minor1 -. minor0 in
  let major = major1 -. major0 in
  (if det_alloc then det else adv) ctx "alloc_minor_words" minor;
  adv ctx "alloc_major_words" major;
  adv ctx "wall_ns" (Int64.to_float (Int64.sub t1 t0));
  { Report.probe = name; metrics = List.rev ctx.acc }
