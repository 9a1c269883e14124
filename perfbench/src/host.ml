(* What every result records about where and how it was measured. *)

let cores () = Domain.recommended_domain_count ()

(* Worker domains the workloads run with: every library call is made with
   [~domains:1], one closed-loop caller in one process. *)
let domains = 1

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  match open_in_bin path with
  | ic ->
    let b = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      let n = input ic chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes b chunk 0 n;
        go ()
      end
    in
    go ();
    close_in ic;
    Some (String.trim (Buffer.contents b))
  | exception Sys_error _ -> None

(* The checkout the benchmark runs in need not be a git repository, so the
   commit is read from .git when present, and a digest of the library
   sources identifies the code either way. *)
let commit () =
  match read_file ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value ~default:"unknown"
      (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
  | Some sha -> sha
  | None -> "unknown"

let rec source_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort String.compare entries;
    Array.to_list entries
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then source_files p
           else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
           then [ p ]
           else [])
  | exception Sys_error _ -> []

let source_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (Option.value ~default:"" (read_file p)))
    (source_files "lib");
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A memory figure of this process from /proc/self/status, in MB. *)
let status_mb field =
  match read_file "/proc/self/status" with
  | None -> None
  | Some status ->
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ f; v ] when String.equal f field -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
             | [] -> None)
           | _ -> None)

(* Peak resident set of this process. *)
let peak_rss_mb () = status_mb "VmHWM"

(* Current resident set. *)
let rss_mb () = status_mb "VmRSS"

let fields () =
  [
    ("host_cores", string_of_int (cores ()));
    ("worker_domains", string_of_int domains);
    ("ocaml", Sys.ocaml_version);
    ("commit", commit ());
    ("lib_source_md5", source_digest ());
    ("clock", Clock.source);
  ]
