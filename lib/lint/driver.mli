(** Orchestration: file discovery, typed-unit loading, rule scoping,
    suppression, deduplication.

    The analysis is in-memory and side-effect free apart from reading the
    scanned files and the [.cmt] files under the build tree, so it is safe
    to run from tests against fixture strings ({!check_source_typed}) as
    well as over the real tree ({!run}). *)

type config = {
  rules : Rules.t list;  (** rules to run (subset of {!Rules.all}) *)
  allowlist : Suppress.allowlist;  (** file-granular legacy exemptions *)
}

val default_config : unit -> config
(** All rules, empty allowlist. *)

exception Unknown_root of string
(** Raised by {!files_under} and {!run} for a root that does not exist:
    a tree reorganisation must not silently turn the lint gate into a
    no-op.  The CLI reports it as a usage error (exit 2). *)

val normalize : string -> string
(** Strip leading [./] and [../] segments so paths key rule scopes and
    allowlist entries repo-relatively. *)

val check_source_typed :
  ?cmi_dirs:string list ->
  config ->
  path:string ->
  source:string ->
  Diagnostic.t list
(** Lint one fixture unit: in-process typing, then the per-file rules,
    flow analyses and purity certification.  [path] decides which rule
    scopes apply.  A unit that does not parse or type yields a single
    [typed-load] diagnostic. *)

val read_file : string -> string
(** Slurp a file (binary mode); exposed for the CLI's allowlist loading. *)

val files_under : string list -> string list
(** All [.ml] files under the given roots (files or directories), sorted;
    [_]- and [.]-prefixed directory entries (notably [_build]) are
    skipped.  @raise Unknown_root on a root that does not exist. *)

val run : config -> cmt_root:string -> roots:string list -> Diagnostic.t list
(** Lint every file under [roots].  Each file's [.cmt] is loaded from under
    [cmt_root] when present, with in-process typing as the fallback; files
    that load neither way yield [typed-load] diagnostics.  Results are
    sorted and deduplicated to one finding per (file, line, rule).
    @raise Unknown_root on a root that does not exist. *)
