(** Loop-nest intermediate representation.

    A program region with fork-join parallelism is a tree of loops whose
    bodies are sequences of segments: opaque straight-line statements and
    nested loops. This is the shape HBC sees after its clang front-end has
    marked DOALL loops: the compiler passes only inspect loop structure,
    never the inside of straight-line code, so statements are modelled as
    OCaml closures that perform the real computation and return their cost
    in simulated cycles.

    Statements receive the environment (the workload's own state), the LST
    context set (to read enclosing induction variables and their own loop's
    locals), and the current iteration index. Any value that must cross a
    nested-loop boundary within an iteration — exactly HBC's live-ins and
    live-outs — must live in the environment or in some loop's locals,
    because a leftover task resumes tail statements in a different task
    than the one that ran the head statements. *)

type 'e stmt = {
  stmt_name : string;
  exec : 'e -> Ctx.set -> int -> int;
      (** [exec env ctxs iter] performs the iteration's work for this
          statement and returns its cost in cycles. *)
}

type 'e loop = {
  loop_name : string;
  doall : bool;  (** false = sequential loop: executed inline, never promoted *)
  mutable ordinal : int;  (** preorder position in the nest; set by {!index} *)
  mutable id : Loop_id.t;  (** (level, index) among DOALL loops; set by {!index} *)
  bounds : 'e -> Ctx.set -> int * int;
      (** iteration space of one invocation, evaluated at invocation time so
          it may depend on enclosing induction variables (irregularity) *)
  locals_spec : Locals.spec;
  bytes_per_iter : int;
      (** memory traffic one iteration of this loop puts on the shared bus
          (its own statements only, not nested loops); drives the
          {!Sim.Engine.charge} bandwidth model *)
  init : ('e -> Locals.t -> unit) option;
      (** run when a task starts executing a slice of this loop; must
          establish the reduction identity if [reduction] is present *)
  reduction : (Locals.t -> Locals.t -> unit) option;
      (** [combine dst src]: fold a sibling slice's locals into the
          canonical ones; declaring it makes parallel splits of this loop
          use fresh locals per half *)
  commit : ('e -> Ctx.set -> unit) option;
      (** for root loops only: publish locals into the environment after the
          whole loop completed (a nested loop's results are instead read by
          the parent's tail statements) *)
  body : 'e segment list;
}

and 'e segment = Stmt of 'e stmt | Nested of 'e loop

val stmt : name:string -> ('e -> Ctx.set -> int -> int) -> 'e segment
(** Convenience constructor for a statement segment. *)

val loop :
  ?doall:bool ->
  ?locals_spec:Locals.spec ->
  ?bytes_per_iter:int ->
  ?init:('e -> Locals.t -> unit) ->
  ?reduction:(Locals.t -> Locals.t -> unit) ->
  ?commit:('e -> Ctx.set -> unit) ->
  name:string ->
  bounds:('e -> Ctx.set -> int * int) ->
  'e segment list ->
  'e loop
(** Build a loop node. [doall] defaults to true. Ordinal and id are
    assigned later by {!index}. *)

val index : 'e loop -> int
(** [index root] walks the nest in preorder, assigns each loop's [ordinal]
    and its DOALL [id] (level, index), and returns the number of loops.
    Idempotent; called by {!Program.v} and the compiler pipeline. *)

val loops_preorder : 'e loop -> 'e loop list

val loop_of_ordinal : 'e loop -> int -> 'e loop
(** @raise Not_found if no loop in the nest has that ordinal. *)

val nested_of : 'e loop -> 'e loop list
(** Direct child loops, in body order. *)

val is_leaf : 'e loop -> bool
(** No nested DOALL loop in the body. *)

val tail_segments : 'e loop -> after:'e loop -> 'e segment list
(** Body segments of [loop] strictly after the [Nested after] segment —
    the "tail work" consumed by leftover tasks (Algorithm 2).
    @raise Not_found if [after] is not a direct child. *)

val locals_specs : 'e loop -> Locals.spec array
(** Locals spec per ordinal, for context-set allocation. *)

val subtree_ordinals : 'e loop -> int list
(** Ordinals of the loop and all its descendants. *)
