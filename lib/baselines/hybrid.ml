let chosen (p : _ Ir.Program.t) =
  match p.Ir.Program.regularity with `Regular -> `Static | `Irregular -> `Heartbeat

let run_program ?(hbc = Hbc_core.Rt_config.default) ?(omp = Openmp.static ()) p =
  match chosen p with
  | `Static -> Openmp.run_program { omp with Openmp.schedule = Openmp.Static } p
  | `Heartbeat ->
      Hbc_core.Executor.run_program hbc
        (Hbc_core.Pipeline.compile_program ~chunk:hbc.Hbc_core.Rt_config.chunk p)
