(** rng-flow and pool-escape: interprocedural checks at Pool/Domain task
    boundaries.

    For every [Pool.map]/[map_array]/[rounds]/[Domain.spawn] application,
    each task argument (function literal or named top-level function) is
    checked for captured [Rng.t] handles, transitive ambient RNG draws,
    mutation of captured/ambient state — directly or through summarized
    callees — and reads of a captured ref or mutable field in the task
    body.  Per-lane patterns (task-parameter handles, values selected
    through the task argument, locals) pass; [Atomic]/[Mutex] are exempt. *)

val check :
  Callgraph.t ->
  Tast_walk.state ->
  rules:Rules.t list ->
  path:string ->
  Typedtree.structure ->
  Diagnostic.t list
