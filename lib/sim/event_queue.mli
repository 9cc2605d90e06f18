(** The engine's event queue: a binary min-heap of unboxed
    (virtual time, seq, code) events.

    Pops come out in strictly increasing (time, seq) order. An event is
    two ints in two flat arrays that double when full: its time, and a
    tag [seq lsl 20 lor code], so the tag order is the seq order. Push,
    pop and {!replace_top} allocate nothing once the arrays have grown. *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int
(** Number of queued events. *)

val push : t -> time:int -> seq:int -> code:int -> unit
(** Enqueue. [seq] must be globally unique; pops tie-break equal times
    by it, FIFO when the pusher's stamps are monotone. Asserts
    [0 <= code < 2^20] and [0 <= seq < 2^42], the bounds of the tag
    layout. *)

val top_time : t -> int
(** Virtual time of the earliest queued event. Undefined when empty —
    callers check {!is_empty} first. *)

val top_seq : t -> int
(** Seq stamp of the earliest queued event. Undefined when empty. *)

val top_code : t -> int
(** Payload code of the earliest queued event. Undefined when empty. *)

val drop : t -> unit
(** Remove the earliest queued event (the one {!top_time}/{!top_code}
    describe). Undefined when empty. *)

val replace_top : t -> time:int -> seq:int -> code:int -> unit
(** [replace_top q ~time ~seq ~code] is {!drop} then {!push}, in one
    sift-down from the root. When (time, seq) is not earlier than the
    top's, it is also {!push} then {!drop}: the engine's worker handoff
    pushes the yielding worker's resume and pops the next event this
    way. Same bounds on [code] and [seq] as {!push}. Undefined when
    empty. *)
