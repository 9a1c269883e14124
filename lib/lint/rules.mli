(** The slp-lint rule registry.

    Each rule carries its name (used in diagnostics, [--rules] selections,
    suppression comments and the allowlist), a one-line rationale, and the
    path scope it applies to.  Scopes take normalized repo-relative paths
    ("lib/sim/engine.ml"). *)

type t = {
  name : string;
  summary : string;
  applies : string -> bool;
}

val all : t list
(** Every rule, in reporting order: the per-file rules [random-stdlib],
    [wall-clock], [hashtbl-order], [poly-compare], [poly-eq],
    [hot-path-hashtbl], [unstable-digest], [no-print], then the
    interprocedural analyses [rng-flow], [pool-escape], [decider-purity]. *)

val names : string list

val find : string -> t option
