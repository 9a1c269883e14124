(** A single positioned lint finding. *)

type t = {
  rule : string;  (** rule name, e.g. ["random-stdlib"] *)
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
}

val make : rule:string -> loc:Location.t -> message:string -> t
(** Build a diagnostic from a source location (start position). *)

val v : rule:string -> file:string -> line:int -> col:int -> message:string -> t

val order : t -> t -> int
(** Total order: file, line, col, rule, message. *)

val to_string : t -> string
(** [file:line:col: error [rule] message] — the compiler-style line that
    editors and CI log scrapers pick up. *)

val to_json : t -> string
(** One JSON object; all strings escaped. *)

val json_string : string -> string
(** Quote and escape one JSON string; shared with the SARIF renderer. *)
