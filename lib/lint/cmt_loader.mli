(** Typed-unit acquisition for slp-lint: load [.cmt] files from the
    dune build tree, or type source in-process when none exist (fixtures,
    unbuilt trees). *)

type unit_info = {
  src : string;  (** normalized repo-relative source path *)
  unit_name : string;  (** compilation unit name, e.g. ["Slpdas_sim__Engine"] *)
  structure : Typedtree.structure;
}

type index

val index : cmt_root:string -> index
(** Scan [cmt_root] (typically [_build/default]) once and map every
    implementation [.cmt] back to its normalized repo-relative source path.
    Missing roots yield an empty index. *)

val find : index -> string -> string option
(** [find idx src] is the cmt path recorded for normalized source [src]. *)

val load_cmt : string -> (unit_info, string) result

val cmi_dirs_under : string -> string list
(** Object directories under a build root that contain [.cmi] files; handed
    to {!type_in_process} so the fallback resolves built project modules. *)

val type_in_process :
  cmi_dirs:string list ->
  path:string ->
  source:string ->
  (unit_info, Diagnostic.t) result
(** Parse and type [source] with the in-process compiler front end.  On
    failure the diagnostic carries rule ["typed-load"] (a tool/setup
    failure, reported on stderr and exit 2 by the CLI — not a finding). *)
