(** Typedtree-side path resolution and the per-file rules.

    The linter's currency is the {e resolved component list} of a path:
    [R.int] after [module R = Random] resolves to
    [["Stdlib"; "Random"; "int"]], and dune's [A__B] unit mangling is
    unsplit so cross-unit references and unit names converge on one
    spelling.  All rules and the interprocedural analyses match on
    these lists, which is what kills alias evasion. *)

type state
(** Per-compilation-unit resolution state: module aliases, top-level value
    paths, and locally let-bound function literals. *)

val state_of_unit : unit_name:string -> Typedtree.structure -> state

val split_dunder : string -> string list
(** ["A__B"] to [["A"; "B"]] — undo dune's wrapped-library mangling. *)

val components : state -> Path.t -> string list
(** Resolved components of a path, with unit-local aliases expanded and
    top-level values qualified under their unit. *)

val name : state -> Path.t -> string

val suffix_matches : string list -> suffix:string list -> bool

val head_path : Typedtree.expression -> Path.t option
(** The variable at the root of a mutation or read target ([r] in
    [r := x], [t.f <- x], [!r]); [None] for computed values such as array
    elements, which the escape analyses deliberately treat as opaque. *)

val stdlib_tail : state -> Path.t -> string list option
(** [Some rest] when the path resolves under [Stdlib]. *)

val is_rng_type : state -> Types.type_expr -> bool
(** Does the type resolve to a constructor whose path ends in [Rng.t]? *)

val spawn_target : string list -> bool
(** Pool submission entry points: [Pool.map]/[map_array]/[rounds] and
    [Domain.spawn] (project or stdlib). *)

val synchronized : string list -> bool
(** [Atomic.*] / [Mutex.*] — operations exempt from escape tracking. *)

val is_function_literal : Typedtree.expression -> bool

val unwrap_module_expr : Typedtree.module_expr -> Typedtree.module_expr
(** Strip [Tmod_constraint] wrappers. *)

val local_fn : state -> Path.t -> Typedtree.expression option
(** The function literal a unit-top-level ident was let-bound to, if any;
    used to analyze [Pool.map pool helper xs] where [helper] is local. *)

val check :
  state ->
  rules:Rules.t list ->
  path:string ->
  Typedtree.structure ->
  Diagnostic.t list
(** Run the per-file rules ([random-stdlib], [wall-clock],
    [hashtbl-order], [unstable-digest], [hot-path-hashtbl], [no-print],
    [poly-compare] and the type-directed [poly-eq]) over one unit.  Interprocedural rules live in {!Flows} and
    {!Purity}. *)
