(** The engine's pending-event queue: a binary min-heap laid out as a
    struct of arrays.

    Each entry carries its ordering keys unboxed — the time in a
    [float array], the push sequence number and the stable key [(k1, k2)]
    in [int array]s — plus three int payload words ([node], [x], [y]) and
    one boxed payload.  Pushing and popping allocate nothing (amortised:
    the arrays double when full), so an event whose payload fits the int
    words costs no heap block at all while it waits.

    Entries are ordered by [(at, seq)], or by [(at, k1, k2, seq)] when the
    queue is [stable] (coupled engines; see {!Engine.processing_key}).
    Times compare as {!Float.compare} does. *)

type 'a t

val create : stable:bool -> 'a -> 'a t
(** [create ~stable vacant] is an empty queue.  [vacant] fills payload
    slots that hold no entry, so a popped payload is not kept alive. *)

val is_empty : 'a t -> bool

val push :
  'a t ->
  at:float ->
  seq:int ->
  k1:int ->
  k2:int ->
  node:int ->
  x:int ->
  y:int ->
  'a ->
  unit

(** {2 The minimum entry}

    Accessors of the entry {!pop} would remove next.
    @raise Invalid_argument on an empty queue. *)

val min_at : 'a t -> float

val min_k1 : 'a t -> int

val min_k2 : 'a t -> int

val min_node : 'a t -> int

val min_x : 'a t -> int

val min_y : 'a t -> int

val min_payload : 'a t -> 'a

val pop : 'a t -> unit
(** Remove the minimum entry.
    @raise Invalid_argument on an empty queue. *)
