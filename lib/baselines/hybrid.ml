let chosen (p : _ Ir.Program.t) =
  match p.Ir.Program.regularity with `Regular -> `Static | `Irregular -> `Heartbeat
