(* slp-lint CLI: lint every .ml under the given roots over the typedtrees
   of the build (run `dune build @check` first), print diagnostics (human, --json or --sarif) and exit
   non-zero if any survive suppression and the baseline.  See DESIGN.md
   "Static analysis".

   Exit codes partition failure kinds so CI stages can tell them apart:
   0 clean, 1 findings, 2 infrastructure/usage errors (unknown roots or
   rules, unreadable baseline, files that do not parse or type — the
   latter reported on stderr, never mixed into the findings stream). *)

open Slpdas_lint

let default_allowlist_file = ".slp-lint-allowlist"

(* Diagnostics with this rule name are tool failures, not findings. *)
let infra_rule rule = String.equal rule "typed-load"

let resolve_rules = function
  | None -> Ok Rules.all
  | Some spec ->
    let names =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> not (String.equal s ""))
    in
    let unknown =
      List.filter (fun n -> Option.is_none (Rules.find n)) names
    in
    if not (List.is_empty unknown) then
      Error
        (Printf.sprintf "unknown rule(s): %s (known: %s)"
           (String.concat ", " unknown)
           (String.concat ", " Rules.names))
    else Ok (List.filter_map Rules.find names)

let resolve_allowlist = function
  | Some path ->
    if Sys.file_exists path then
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (Suppress.parse_allowlist (Driver.read_file path))
    else Error (Printf.sprintf "allowlist %s does not exist" path)
  | None ->
    if Sys.file_exists default_allowlist_file then
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" default_allowlist_file e)
        (Suppress.parse_allowlist (Driver.read_file default_allowlist_file))
    else Ok (Suppress.empty_allowlist ())

let resolve_baseline = function
  | None -> Ok None
  | Some path ->
    if Sys.file_exists path then
      Result.fold
        ~ok:(fun b -> Ok (Some b))
        ~error:(fun e -> Error (Printf.sprintf "%s: %s" path e))
        (Baseline.parse (Driver.read_file path))
    else Error (Printf.sprintf "baseline %s does not exist" path)

let list_rules () =
  List.iter
    (fun r ->
      print_string r.Rules.name;
      print_string "\n  ";
      print_string r.Rules.summary;
      print_newline ())
    Rules.all;
  0

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let lint roots json cmt_root rules_spec allowlist_path baseline_path
    write_baseline_path sarif_path list_rules_flag =
  if list_rules_flag then list_rules ()
  else
    let ( let* ) r f =
      match r with
      | Error e ->
        prerr_endline ("slp-lint: " ^ e);
        2
      | Ok v -> f v
    in
    let* rules = resolve_rules rules_spec in
    let* allowlist = resolve_allowlist allowlist_path in
    let* baseline = resolve_baseline baseline_path in
    let config = { Driver.rules; allowlist } in
    let* diags =
      match Driver.run config ~cmt_root ~roots with
      | diags -> Ok diags
      | exception Driver.Unknown_root root ->
        Error (Printf.sprintf "root %s does not exist" root)
    in
    (* Tool failures go to stderr and force exit 2; they are never part of
       the findings stream, the baseline or the SARIF results. *)
    let infra, findings =
      List.partition (fun d -> infra_rule d.Diagnostic.rule) diags
    in
    List.iter (fun d -> prerr_endline (Diagnostic.to_string d)) infra;
    (match write_baseline_path with
    | Some path -> write_file path (Baseline.render findings)
    | None -> ());
    let findings =
      match baseline with
      | Some b -> Baseline.apply b findings
      | None -> findings
    in
    (match sarif_path with
    | Some path -> write_file path (Sarif.render ~rules findings)
    | None -> ());
    let buf = Buffer.create 4096 in
    if json then Reporter.json buf findings else Reporter.human buf findings;
    print_string (Buffer.contents buf);
    if not (List.is_empty infra) then 2
    else if List.is_empty findings then 0
    else 1

open Cmdliner

let roots_arg =
  let doc = "Files or directories to lint (default: lib bin bench)." in
  Arg.(value & pos_all string [ "lib"; "bin"; "bench" ] & info [] ~docv:"PATH" ~doc)

let json_arg =
  let doc = "Emit diagnostics as JSON instead of compiler-style lines." in
  Arg.(value & flag & info [ "json" ] ~doc)

let cmt_root_arg =
  let doc = "Build tree to load .cmt files from." in
  Arg.(value & opt string "_build/default" & info [ "cmt-root" ] ~docv:"DIR" ~doc)

let rules_arg =
  let doc =
    "Comma-separated rule subset to run (default: every rule). See \
     $(b,--list-rules)."
  in
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"RULES" ~doc)

let allowlist_arg =
  let doc =
    "Allowlist file of '<path> <rule>' legacy exemptions (default: \
     .slp-lint-allowlist if present)."
  in
  Arg.(value & opt (some string) None & info [ "allowlist" ] ~docv:"FILE" ~doc)

let baseline_arg =
  let doc =
    "Baseline ratchet file of '<path> <rule> <count>' entries; recorded \
     counts are subtracted so only net-new findings fail the run."
  in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let write_baseline_arg =
  let doc = "Write the surviving findings to $(docv) as a baseline and \
             continue." in
  Arg.(value & opt (some string) None & info [ "write-baseline" ] ~docv:"FILE" ~doc)

let sarif_arg =
  let doc = "Also write findings to $(docv) as SARIF 2.1.0." in
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)

let list_rules_arg =
  let doc = "Print the rule set with rationales, then exit." in
  Arg.(value & flag & info [ "list-rules" ] ~doc)

let cmd =
  let doc = "project static analysis for slp-das" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Lints every .ml under the given roots and enforces the project \
         invariants no compiler checks: determinism (no ambient randomness \
         or wall-clock reads, no hash-order-dependent aggregation), domain \
         safety (no unsynchronized mutable captures in pool tasks) and \
         hot-path discipline (no polymorphic compares, no stray stdout). \
         It reads the .cmt files of the build tree (run $(b,dune build \
         @check) first), so module aliases cannot hide a banned path, and \
         adds the interprocedural analyses rng-flow, pool-escape and \
         decider-purity.";
      `P
        "Exits 0 when clean, 1 if any finding survives suppression and the \
         baseline, and 2 on usage or infrastructure errors (unknown roots, \
         files that do not parse or type) — those are reported on stderr, \
         never mixed into the findings stream.";
      `P
        "Suppress a deliberate one-off with a comment: (* slp-lint: allow \
         RULE *) on the offending line or the line above; allow-file makes \
         it file-wide. Legacy surfaces go in .slp-lint-allowlist with a \
         justification comment.";
    ]
  in
  Cmd.v
    (Cmd.info "slp_lint" ~doc ~man)
    Term.(
      const lint $ roots_arg $ json_arg $ cmt_root_arg $ rules_arg
      $ allowlist_arg $ baseline_arg $ write_baseline_arg $ sarif_arg
      $ list_rules_arg)

let () = exit (Cmd.eval' cmd)
