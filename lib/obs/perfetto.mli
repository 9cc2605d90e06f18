(** Chrome [trace_event] / Perfetto-compatible JSON export.

    One virtual cycle maps to one microsecond of trace time ([ts]), so the
    Perfetto UI and [chrome://tracing] render virtual-time runs directly.
    Worker execution intervals become duration ("ph":"X") events on one
    track per worker; everything else becomes a thread-scoped instant
    ("ph":"i") carrying its payload in [args]; adaptive-chunking decisions
    additionally drive a "chunk-size" counter ("ph":"C") track.

    The export is deterministic: records are written in emission order, so
    equal traces produce byte-identical files. *)

val to_json : ?process_name:string -> Trace.record list -> Json.t

val to_string : ?process_name:string -> Trace.record list -> string
(** The full trace file: [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val instants : process_name:string -> (int * string) list -> string
(** A full trace file of [(time, name)] instants without payload, all on
    one track (worker 0) — for event streams defined outside {!Trace}. *)
