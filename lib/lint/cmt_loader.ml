(* Typed-unit acquisition for slp-lint.

   Primary source: .cmt files under the dune build tree (dune compiles with
   -bin-annot, so every built module has one).  They carry the typedtree the
   compiler actually checked — alias-resolved paths, resolved types — which
   is what makes the typed rules immune to `module R = Random`-style
   evasion.

   Fallback: when a source file has no .cmt (tree not built, or a test
   fixture that exists only as a string), the source is typed in-process
   with the same compiler-libs front end.  Cross-module references resolve
   only as far as the .cmi files visible on the load path (the cmt root's
   object directories are added when present), so the fallback is complete
   for self-contained fixtures and best-effort for real tree files. *)

type unit_info = {
  src : string;  (* normalized repo-relative source path *)
  unit_name : string;  (* compilation unit name, e.g. "Slpdas_sim__Engine" *)
  structure : Typedtree.structure;
}

type index = (string, string) Hashtbl.t  (* normalized source path -> cmt *)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

let scan_cmts root =
  let out = ref [] in
  let rec visit path =
    if is_dir path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.iter (fun entry -> visit (Filename.concat path entry))
    else if Filename.check_suffix path ".cmt" then out := path :: !out
  in
  if Sys.file_exists root then visit root;
  List.rev !out

(* Index the build tree once per run: map each implementation cmt back to
   the repo-relative source path recorded at compile time.  Reading a cmt
   is one unmarshal; an index over this repository is tens of files. *)
let index ~cmt_root : index =
  let idx = Hashtbl.create 64 in
  List.iter
    (fun cmt_path ->
      match
        try Some (Cmt_format.read_cmt cmt_path) with
        | _ -> None
      with
      | Some { Cmt_format.cmt_annots = Cmt_format.Implementation _;
               cmt_sourcefile = Some src; _ }
        when Filename.check_suffix src ".ml" ->
        let src = Suppress.normalize_path src in
        if not (Hashtbl.mem idx src) then Hashtbl.replace idx src cmt_path
      | _ -> ())
    (scan_cmts cmt_root);
  idx

let find (idx : index) src = Hashtbl.find_opt idx src

let load_cmt cmt_path =
  match
    try Ok (Cmt_format.read_cmt cmt_path) with
    | e -> Error (Printexc.to_string e)
  with
  | Error e -> Error e
  | Ok cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation structure -> (
      match cmt.Cmt_format.cmt_sourcefile with
      | Some src ->
        Ok
          {
            src = Suppress.normalize_path src;
            unit_name = cmt.Cmt_format.cmt_modname;
            structure;
          }
      | None -> Error "cmt has no source file")
    | _ -> Error "cmt is not an implementation")

(* ------------------------------------------------------------------ *)
(* In-process typing fallback                                         *)
(* ------------------------------------------------------------------ *)

let typing_initialized = ref false

let init_typing ~cmi_dirs =
  if not !typing_initialized then begin
    typing_initialized := true;
    (* The lint process is not a compiler run: fixture typing must not spam
       stderr with unused-variable style warnings. *)
    ignore (Warnings.parse_options false "-a");
    Compmisc.init_path ()
  end;
  List.iter
    (fun dir -> if is_dir dir then Load_path.append_dir (Load_path.Dir.create dir))
    cmi_dirs

(* Directories under the cmt root that hold .cmi files, so the fallback can
   resolve references into already-built project libraries. *)
let cmi_dirs_under cmt_root =
  let out = ref [] in
  let rec visit path =
    if is_dir path then begin
      let entries = Sys.readdir path in
      if Array.exists (fun e -> Filename.check_suffix e ".cmi") entries then
        out := path :: !out;
      Array.iter (fun e -> visit (Filename.concat path e)) entries
    end
  in
  if Sys.file_exists cmt_root then visit cmt_root;
  List.sort String.compare !out

let unit_name_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let type_in_process ~cmi_dirs ~path ~source =
  init_typing ~cmi_dirs;
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match
    try
      let pstr = Parse.implementation lexbuf in
      let structure, _, _, _, _ =
        Typemod.type_structure (Compmisc.initial_env ()) pstr
      in
      Ok structure
    with
    | e -> Error e
  with
  | Ok structure ->
    Ok { src = Suppress.normalize_path path; unit_name = unit_name_of_path path;
         structure }
  | Error e -> (
    match Location.error_of_exn e with
    | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      let txt = Format.asprintf "%t" report.Location.main.Location.txt in
      Error
        (Diagnostic.make ~rule:"typed-load" ~loc
           ~message:
             (Printf.sprintf "slp-lint could not type this file: %s" txt))
    | _ ->
      Error
        (Diagnostic.v ~rule:"typed-load" ~file:path ~line:1 ~col:0
           ~message:
             (Printf.sprintf "slp-lint could not type this file: %s"
                (Printexc.to_string e))))
