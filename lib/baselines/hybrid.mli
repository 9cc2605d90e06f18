(** The scheduler the paper's conclusion asks for (Sec. 6.8): "an ideal
    compiler should include both heartbeat and static scheduling."

    Regular programs run under OpenMP-style static scheduling (minimal
    runtime overhead, perfect balance by construction); irregular programs
    run under the heartbeat runtime. The regularity classification comes
    from the program metadata — the same attribute the paper's Table 1
    assigns per benchmark. [Sched_run]'s [Hybrid] engine runs the choice. *)

val chosen : 'e Ir.Program.t -> [ `Heartbeat | `Static ]
(** Which engine the hybrid picks for a program. *)
