(** Canonical verification queries.

    A verification request is fully determined by the graph structure, the
    schedule content, the attacker's budget and decision function, the
    safety period and the source.  This module reifies that determination
    as a value: a [Query.t] carries machine-stable digests of the graph and
    schedule ({!Slpdas_wsn.Graph.fingerprint}, {!Slpdas_core.Schedule.digest})
    plus the scalar parameters, so equal queries — across processes,
    machines and OCaml versions — produce equal {!key} strings and can
    share one cached answer.

    Only attackers whose decision function is {e pure} and registered in
    the {!decider} enumeration are representable: an rng-driven decider
    (e.g. [Attacker.random_heard]) gives different verdicts per call, so
    {!of_request} refuses to build a query for it and the service computes
    such requests directly, bypassing the cache.

    {b Purity contract.}  Every function the registry's [decide_fn]
    returns must be transitively free of mutation of captured state, I/O,
    RNG draws and escaping exceptions — an impure decider would poison
    every cache (in-memory or on-disk) its answers touch.  This is not
    left to review: the [decider-purity] lint rule ([make lint]) walks
    the project call graph from [decide_fn] and fails the build if any
    registered decider or anything it reaches violates the contract.  When adding a decider, register it here and
    run [make lint] over the whole tree so the certification can
    see every unit the new decider calls into. *)

type decider =
  | Lowest_slot  (** [Attacker.lowest_slot], the paper's eavesdropper *)
  | History_avoiding  (** [Attacker.lowest_slot_avoiding_history] *)
  | Second_lowest  (** [Attacker.second_lowest] *)

val decider_name : decider -> string
(** The CLI/registry name: ["lowest-slot"], ["history-avoiding"],
    ["second-lowest"].  Matches [Attacker.params.decide_name]. *)

val decider_of_name : string -> decider option

type t = {
  graph_fp : string;
  sched_digest : string;
  r : int;
  h : int;
  m : int;
  start : int;
  decider : decider;
  safety_period : int;
  source : int;
}

val of_request :
  Slpdas_wsn.Graph.t ->
  Slpdas_core.Schedule.t ->
  attacker:Slpdas_core.Attacker.params ->
  safety_period:int ->
  source:int ->
  t option
(** [None] when [attacker.decide_name] names no registered pure decider —
    the request is not cacheable.  The decision is by name: constructing an
    attacker whose [decide_name] claims a registered decider but whose
    [decide] differs poisons any cache it touches. *)

val make_attacker :
  decider ->
  r:int ->
  h:int ->
  m:int ->
  start:int ->
  Slpdas_core.Attacker.params
(** An attacker whose decision function and name come from the registry —
    the cacheable way to build one (its [decide_name] always matches its
    [decide], so {!of_request} accepts it).
    @raise Invalid_argument as {!Slpdas_core.Attacker.make}. *)

val attacker : t -> Slpdas_core.Attacker.params
(** Rebuild the attacker the query describes from the registry. *)

val key : t -> string
(** A stable, injective string encoding of the query (modulo digest
    collisions), usable as an on-disk cache key.  Versioned: encodings of
    future query shapes will not alias today's. *)

val equal : t -> t -> bool

type answer = { outcome : Slpdas_core.Verifier.outcome; explored : int }
(** What {!Slpdas_core.Verifier.verify_with_stats} returns. *)

val answer_equal : answer -> answer -> bool

val encode_answer : answer -> string
(** One-line byte-stable encoding: [safe <explored>] or
    [captured <periods> <explored> <trace…>].  Round-trips through
    {!decode_answer}. *)

val decode_answer : string -> (answer, string) result
