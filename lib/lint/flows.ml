(* rng-flow and pool-escape: the closure-boundary analyses.

   Every application of a Pool submission entry point ([Pool.map],
   [Pool.map_array], [Pool.rounds], [Domain.spawn]) is a boundary.  Each
   task argument — a function literal, or a name resolving to a summarized
   top-level function — is checked for facts that must not cross it:

   - rng-flow: an [Rng.t]-typed value captured from outside the task, or a
     call reaching an ambient RNG draw.  Per-lane handles (task parameters,
     values selected through the task argument, [Rng.create]/[Rng.split]
     results bound inside the task) are all classified [Local]/[Opaque] and
     pass.

   - pool-escape: mutation of captured or ambient mutable state, directly
     or through any transitive callee ([mut_params] matched against
     captured arguments, or [ambient_mut] anywhere in the callee's cone),
     and reads of a captured ref or mutable field in the closure body.
     [Atomic.*]/[Mutex.*] are exempt. *)

open Typedtree

let dotted comps = String.concat "." comps

let diag diags rule loc fmt =
  Printf.ksprintf
    (fun message -> diags := Diagnostic.make ~rule ~loc ~message :: !diags)
    fmt

(* Reads of captured mutable state in a task literal: [!r], or a read of
   a mutable record field (a ref's [contents] included) whose root is
   captured.  A lane that only reads still races with whoever writes.
   Atomic/Mutex applications are not entered. *)
let check_reads st ~classify ~diags lit =
  let flag e loc =
    match Tast_walk.head_path e with
    | Some p -> (
      match classify p with
      | Callgraph.Ambient comps ->
        diag diags "pool-escape" loc
          "task submitted to Pool/Domain reads captured mutable state (%s); \
           read it before the submission and pass the value, or guard with \
           Atomic/Mutex"
          (dotted comps)
      | _ -> ())
    | None -> ()
  in
  let expr self e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      let comps = Tast_walk.components st p in
      if not (Tast_walk.synchronized comps) then begin
        (match (comps, args) with
        | [ "Stdlib"; "!" ], [ (_, Some r) ] -> flag r e.exp_loc
        | _ -> ());
        Tast_iterator.default_iterator.expr self e
      end
    | Texp_field (obj, _, { Types.lbl_mut = Asttypes.Mutable; _ }) ->
      flag obj e.exp_loc;
      Tast_iterator.default_iterator.expr self e
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it lit

(* Facts of one task closure, classified against the closure's own bound
   set: anything not bound inside the literal is captured. *)
let check_closure graph st ~rng_on ~pool_on ~diags lit =
  let bound = Hashtbl.create 32 in
  Callgraph.bound_idents_in
    (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
    lit;
  let classify p =
    match p with
    | Path.Pident id when Hashtbl.mem bound (Ident.unique_name id) ->
      Callgraph.Local
    | _ -> Callgraph.Ambient (Tast_walk.components st p)
  in
  let ev =
    {
      Callgraph.mutate =
        (fun cls loc ->
          match cls with
          | Callgraph.Ambient comps when pool_on ->
            diag diags "pool-escape" loc
              "task submitted to Pool/Domain mutates captured state (%s); \
               return per-lane results and merge after the join, or guard \
               with Atomic/Mutex"
              (dotted comps)
          | _ -> ());
      rng =
        (fun cls loc ->
          match cls with
          | Callgraph.Ambient comps when rng_on ->
            diag diags "rng-flow" loc
              "Rng handle %s is shared across Pool/Domain tasks; split \
               per-lane handles with Rng.split outside the submission and \
               pass one through the task argument"
              (dotted comps)
          | _ -> ());
      call =
        (fun callee cargs loc ~in_try:_ ->
          match Callgraph.find graph (dotted callee) with
          | None -> ()
          | Some sum ->
            if rng_on && Option.is_some sum.Callgraph.ambient_rng then
              diag diags "rng-flow" loc
                "%s draws from an ambient Rng handle and is called inside a \
                 Pool/Domain task; thread a per-lane handle through its \
                 arguments instead"
                sum.Callgraph.sfn;
            if rng_on then
              List.iter
                (fun (key, cls) ->
                  match cls with
                  | Callgraph.Ambient comps
                    when List.mem key sum.Callgraph.rng_params ->
                    (* e.g. a Monte-Carlo trial helper handed a captured
                       record whose Rng.t field it draws from: no Rng.t
                       ident crosses the boundary, but the lanes still race
                       on one generator. *)
                    diag diags "rng-flow" loc
                      "captured %s feeds a parameter %s draws randomness \
                       through inside a Pool/Domain task; derive a per-lane \
                       handle (Rng.split outside the submission, or \
                       Rng.create from a per-lane seed) and pass that \
                       instead"
                      (dotted comps) sum.Callgraph.sfn
                  | _ -> ())
                cargs;
            if pool_on then begin
              if Option.is_some sum.Callgraph.ambient_mut then
                diag diags "pool-escape" loc
                  "%s mutates ambient state and is called inside a \
                   Pool/Domain task"
                  sum.Callgraph.sfn;
              List.iter
                (fun (key, cls) ->
                  match cls with
                  | Callgraph.Ambient comps
                    when List.mem key sum.Callgraph.mut_params ->
                    diag diags "pool-escape" loc
                      "captured %s is mutated by %s inside a Pool/Domain \
                       task; pass a per-lane value or merge after the join"
                      (dotted comps) sum.Callgraph.sfn
                  | _ -> ())
                cargs
            end);
      vref = (fun _ _ -> ());
      rais = (fun _ ~in_try:_ -> ());
    }
  in
  Callgraph.scan st ~classify ~ev lit;
  if pool_on then check_reads st ~classify ~diags lit

(* A task passed by name: judge it by its summary alone (its parameters are
   per-task values supplied by the pool, so only ambient facts matter). *)
let check_named_task graph st ~rng_on ~pool_on ~diags loc p =
  match Callgraph.find graph (dotted (Tast_walk.components st p)) with
  | None -> ()
  | Some sum ->
    (match sum.Callgraph.ambient_rng with
    | Some _ when rng_on ->
      diag diags "rng-flow" loc
        "%s draws from an ambient Rng handle and is submitted as a \
         Pool/Domain task; thread a per-lane handle through its arguments"
        sum.Callgraph.sfn
    | _ -> ());
    match sum.Callgraph.ambient_mut with
    | Some _ when pool_on ->
      diag diags "pool-escape" loc
        "%s mutates ambient state and is submitted as a Pool/Domain task"
        sum.Callgraph.sfn
    | _ -> ()

let check graph st ~rules ~path structure =
  let enabled name =
    List.exists
      (fun r ->
        String.equal r.Rules.name name && r.Rules.applies path)
      rules
  in
  let rng_on = enabled "rng-flow" in
  let pool_on = enabled "pool-escape" in
  if (not rng_on) && not pool_on then []
  else begin
    let diags = ref [] in
    let expr self e =
      (match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
        when Tast_walk.spawn_target (Tast_walk.components st p) ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some a when Tast_walk.is_function_literal a ->
              check_closure graph st ~rng_on ~pool_on ~diags a
            | Some { exp_desc = Texp_ident (q, _, _); exp_loc; _ } ->
              check_named_task graph st ~rng_on ~pool_on ~diags exp_loc q
            | _ -> ())
          args
      | _ -> ());
      Tast_iterator.default_iterator.expr self e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.structure it structure;
    List.sort_uniq Diagnostic.order !diags
  end
