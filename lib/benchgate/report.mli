(** Machine-readable benchmark reports: the perf-gate's unit of exchange.

    A report is a suite of named probes, each carrying a flat list of
    metrics. Every metric is deterministic (virtual cycles, event/operation
    counts, allocation words — a pure function of the code under test, so
    any drift is a real change); wall-clock time is measured by
    [benchmark/hbc_bench], not here. Reports serialize with {!Obs.Json} to
    [bench/baseline.json], and {!Diff} compares two of them. The committed
    [BENCH_PR4.json] and [BENCH_PR9.json] are frozen schema-1 records
    (with per-metric kind tags) that this codec no longer reads. *)

type metric = { metric : string; value : float }

type probe = { probe : string; metrics : metric list }

type t = {
  schema : int;  (** codec version, bumped on layout changes *)
  label : string;  (** human tag, e.g. ["PR4"] or ["ci"] *)
  notes : (string * string) list;
      (** free-form provenance (optimization before/after records, scale) *)
  probes : probe list;
}

val schema_version : int

val make : ?notes:(string * string) list -> label:string -> probe list -> t

val find_probe : t -> string -> probe option

val find_metric : probe -> string -> metric option

(** {2 Codec}

    Serialization is deterministic (field order fixed, floats as
    ["%.17g"]), so an unchanged suite produces byte-identical reports. *)

exception Malformed of string
(** Raised by {!of_string} / {!read_file} on JSON that parses but does not
    describe a report (wrong schema, missing fields). *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> t

val to_string : t -> string

val of_string : string -> t
(** @raise Malformed on shape errors, {!Obs.Json.Parse_error} on syntax. *)

val write_file : string -> t -> unit

val read_file : string -> t
(** @raise Sys_error when unreadable, {!Malformed} / {!Obs.Json.Parse_error}
    as {!of_string}. *)
