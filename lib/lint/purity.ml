(* decider-purity: certify the attacker-decision functions registered in
   lib/serve/query.ml.

   The serving layer promises that a query never perturbs the simulation:
   deciders run inside the query engine, possibly concurrently with other
   queries, and replaying a trace with the same seed must reproduce the
   same transcript.  So every function reachable from [decide_fn] must be
   free of mutation (of arguments or ambient state), I/O, RNG draws, and
   escaping exceptions.

   The certification is a BFS over {!Callgraph} summaries starting at
   [decide_fn]: each visited function contributes its own effect facts plus
   a denylist screen over its ambient references (stdlib entry points that
   print, read clocks or randomness, or may raise — [List.hd],
   [Hashtbl.find], ...).  Project references that resolve to a summary are
   enqueued; ones whose unit was not analyzed cannot be certified and are
   reported as such (lint the whole tree, not a sub-directory, to certify
   cross-library deciders). *)

let registry = [ ("lib/serve/query.ml", "decide_fn") ]

let denylisted name =
  (* Dotted resolved names.  Entries under Stdlib are matched on the tail
     so both ["Stdlib.raise"] and re-exposed spellings screen. *)
  let tail_is l =
    match String.index_opt name '.' with
    | None -> String.equal name l
    | Some _ ->
      let ln = String.length name and ll = String.length l in
      ln > ll
      && Char.equal name.[ln - ll - 1] '.'
      && String.equal (String.sub name (ln - ll) ll) l
  in
  let prefixed p =
    let lp = String.length p in
    String.length name >= lp && String.equal (String.sub name 0 lp) p
  in
  if prefixed "Stdlib.Random." then Some "draws from the global Random state"
  else if prefixed "Stdlib.Sys." then Some "queries the host system"
  else if prefixed "Unix." || prefixed "Stdlib.Unix." then
    Some "performs Unix I/O"
  else if
    prefixed "Stdlib.Out_channel." || prefixed "Stdlib.In_channel."
    || prefixed "Stdlib.Mutex."
  then Some "performs channel or lock operations"
  else if
    List.exists tail_is
      [ "print_endline"; "print_string"; "print_newline"; "print_int";
        "print_float"; "print_char"; "print_bytes"; "prerr_endline";
        "prerr_string"; "read_line"; "read_int" ]
    || List.exists (fun n -> String.equal name n)
         [ "Stdlib.Printf.printf"; "Stdlib.Printf.eprintf";
           "Stdlib.Printf.fprintf"; "Stdlib.Format.printf";
           "Stdlib.Format.eprintf"; "Stdlib.Format.fprintf" ]
  then Some "prints"
  else if
    List.exists (fun n -> String.equal name n)
      [ "Stdlib.List.hd"; "Stdlib.List.tl"; "Stdlib.List.nth";
        "Stdlib.List.find"; "Stdlib.List.assoc"; "Stdlib.Option.get";
        "Stdlib.Hashtbl.find" ]
  then Some "may raise on empty/missing input"
  else if
    List.exists (fun n -> String.equal name n)
      [ "Stdlib.Atomic.set"; "Stdlib.Atomic.exchange";
        "Stdlib.Atomic.compare_and_set"; "Stdlib.Atomic.fetch_and_add";
        "Stdlib.Atomic.incr"; "Stdlib.Atomic.decr" ]
  then Some "mutates shared atomics"
  else None

let loc_str (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.Lexing.pos_fname
    loc.loc_start.Lexing.pos_lnum

(* Does any analyzed unit own this dotted reference?  Decides between
   "impure" and "outside the analyzed set". *)
let unit_loaded ~unit_prefixes name =
  let comps = String.split_on_char '.' name in
  List.exists
    (fun prefix ->
      let rec is_prefix p c =
        match (p, c) with
        | [], _ -> true
        | ph :: pt, ch :: ct when String.equal ph ch -> is_prefix pt ct
        | _ -> false
      in
      is_prefix prefix comps)
    unit_prefixes

let violations ~unit_prefixes (s : Callgraph.summary) =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  (match s.Callgraph.ambient_mut with
  | Some loc -> add "mutates ambient state (%s)" (loc_str loc)
  | None -> ());
  (match s.Callgraph.ambient_rng with
  | Some loc -> add "draws from an ambient Rng handle (%s)" (loc_str loc)
  | None -> ());
  (match s.Callgraph.raises with
  | Some loc -> add "may let an exception escape (%s)" (loc_str loc)
  | None -> ());
  if not (List.is_empty s.Callgraph.mut_params) then
    add "mutates its arguments (%s)"
      (String.concat ", " (List.sort String.compare s.Callgraph.mut_params));
  List.iter
    (fun (name, loc) ->
      match denylisted name with
      | Some why -> add "references %s, which %s (%s)" name why (loc_str loc)
      | None ->
        (* Project references must resolve to a summary (functions) or to a
           unit we analyzed (data constants are fine).  Anything else is
           uncertifiable. *)
        let stdlib =
          String.length name >= 7 && String.equal (String.sub name 0 7) "Stdlib."
        in
        if
          (not stdlib)
          && String.contains name '.'
          && not (unit_loaded ~unit_prefixes name)
        then
          add
            "references %s, which is outside the analyzed set (lint the \
             whole tree to certify it) (%s)"
            name (loc_str loc))
    s.Callgraph.refs;
  List.rev !out

let certify graph ~unit_prefixes (root : Callgraph.summary) =
  let visited = Hashtbl.create 16 in
  let problems = ref [] in
  let rec visit (s : Callgraph.summary) =
    if not (Hashtbl.mem visited s.Callgraph.sfn) then begin
      Hashtbl.replace visited s.Callgraph.sfn ();
      List.iter
        (fun v -> problems := (s.Callgraph.sfn, v) :: !problems)
        (violations ~unit_prefixes s);
      List.iter
        (fun (name, _) ->
          match Callgraph.find graph name with
          | Some next -> visit next
          | None -> ())
        s.Callgraph.refs
    end
  in
  visit root;
  List.rev !problems

let rule_enabled rules ~path =
  List.exists
    (fun r ->
      String.equal r.Rules.name "decider-purity" && r.Rules.applies path)
    rules

let check graph ~rules ~units =
  let unit_prefixes =
    List.map
      (fun (u : Cmt_loader.unit_info) ->
        Tast_walk.split_dunder u.Cmt_loader.unit_name)
      units
  in
  List.concat_map
    (fun (src, fname) ->
      match
        List.find_opt
          (fun (u : Cmt_loader.unit_info) -> String.equal u.Cmt_loader.src src)
          units
      with
      | None -> []  (* registry file not in the scanned set *)
      | Some _ when not (rule_enabled rules ~path:src) -> []
      | Some u -> (
        let expected =
          String.concat "."
            (Tast_walk.split_dunder u.Cmt_loader.unit_name @ [ fname ])
        in
        match Callgraph.find graph expected with
        | None ->
          [ Diagnostic.v ~rule:"decider-purity" ~file:src ~line:1 ~col:0
              ~message:
                (Printf.sprintf
                   "decider registry %s not found in %s; the purity contract \
                    cannot be certified"
                   fname src) ]
        | Some root ->
          certify graph ~unit_prefixes root
          |> List.map (fun (fn, problem) ->
                 Diagnostic.make ~rule:"decider-purity" ~loc:root.Callgraph.sloc
                   ~message:
                     (Printf.sprintf
                        "decider path %s is not certifiably pure: %s" fn
                        problem))))
    registry
