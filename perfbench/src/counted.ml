(* A {!Slpdas_exp.Scenario.t} wrapper that counts and times, from outside
   the program, every call the engine makes into the protocol: each
   guarded action's [handler], each spontaneous action's [sguard] and
   [scommand], and the scenario's [extract].  Shared by the fig5_des and
   des_churn workloads.

   The handler boundary is crossed millions of times per run, so it is
   accumulated here as sums and counts rather than recorded as spans.  The
   wrappers only read the clock and bump integer fields: they do not
   allocate, so they leave the program's allocation profile unchanged. *)

type probe = {
  mutable handler_calls : int;
  mutable fires : int;
  mutable fired_ns : int;  (** handler calls whose guard held, plus spontaneous commands *)
  mutable rejected_ns : int;  (** handler calls whose guard was false *)
  mutable effects : int;  (** effects returned by fired actions *)
  mutable guard_calls : int;
  mutable spontaneous_fires : int;
  mutable extract_ns : int;
  action_names : string array;
  action_fires : int array;
}

let create ~action_names =
  {
    handler_calls = 0;
    fires = 0;
    fired_ns = 0;
    rejected_ns = 0;
    effects = 0;
    guard_calls = 0;
    spontaneous_fires = 0;
    extract_ns = 0;
    action_names;
    action_fires = Array.make (Array.length action_names) 0;
  }

let index_of p name =
  let rec go i =
    if i >= Array.length p.action_names then
      invalid_arg ("Counted: action not declared in the probe: " ^ name)
    else if String.equal p.action_names.(i) name then i
    else go (i + 1)
  in
  go 0

let wrap_action p (a : ('s, 'm) Slpdas_gcn.action) =
  let idx = index_of p a.Slpdas_gcn.name in
  let handler ~self s trigger =
    let t0 = Clock.now_ns () in
    let r = a.Slpdas_gcn.handler ~self s trigger in
    let dt = Clock.now_ns () - t0 in
    p.handler_calls <- p.handler_calls + 1;
    (match r with
    | None -> p.rejected_ns <- p.rejected_ns + dt
    | Some (_, effects) ->
      p.fires <- p.fires + 1;
      p.fired_ns <- p.fired_ns + dt;
      p.action_fires.(idx) <- p.action_fires.(idx) + 1;
      p.effects <- p.effects + List.length effects);
    r
  in
  { a with Slpdas_gcn.handler }

let wrap_spontaneous p (sp : ('s, 'm) Slpdas_gcn.spontaneous) =
  let sguard s =
    p.guard_calls <- p.guard_calls + 1;
    let fire = sp.Slpdas_gcn.sguard s in
    if fire then p.spontaneous_fires <- p.spontaneous_fires + 1;
    fire
  in
  let scommand ~self s =
    let t0 = Clock.now_ns () in
    let ((_, effects) as r) = sp.Slpdas_gcn.scommand ~self s in
    p.fired_ns <- p.fired_ns + (Clock.now_ns () - t0);
    p.effects <- p.effects + List.length effects;
    r
  in
  { sp with Slpdas_gcn.sguard; scommand }

(* [wrap ?trace ~op p sc] also records the extractor as an "exp.extract"
   span of operation [op] when a trace is given. *)
let wrap ?trace ~op p (sc : ('s, 'm, 'obs, 'r) Slpdas_exp.Scenario.t) =
  let program ~self =
    let prog = sc.Slpdas_exp.Scenario.program ~self in
    {
      prog with
      Slpdas_gcn.actions = List.map (wrap_action p) prog.Slpdas_gcn.actions;
      spontaneous = List.map (wrap_spontaneous p) prog.Slpdas_gcn.spontaneous;
    }
  in
  let extract engine obs =
    let t0 = Clock.now_ns () in
    let r =
      Trace.span_opt trace ~op "exp.extract" (fun () ->
          sc.Slpdas_exp.Scenario.extract engine obs)
    in
    p.extract_ns <- p.extract_ns + (Clock.now_ns () - t0);
    r
  in
  { sc with Slpdas_exp.Scenario.program; extract }

(* The SLP-DAS protocol's guarded actions, in declaration order. *)
let protocol_actions =
  [|
    "receiveHello"; "receiveN"; "receiveU"; "receiveS"; "receiveC";
    "receiveData"; "receiveF"; "receiveR"; "hello"; "dissem"; "process";
    "startS"; "period"; "tx";
  |]
