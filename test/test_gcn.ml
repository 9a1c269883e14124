(* Tests for the guarded-command runtime (Slpdas_gcn). *)

module Gcn = Slpdas_gcn

let t_timer = Gcn.Timer.intern "t"

let x_timer = Gcn.Timer.intern "x"

let go_timer = Gcn.Timer.intern "go"

(* A small counter program used throughout:
   - "tick" on Timeout "t": increments and re-arms;
   - "recv" on Receive: adds the payload, broadcasts the running total;
   - spontaneous "sat": once the counter reaches 10, emits a broadcast and
     latches (guard falsifies itself). *)
type counter = { count : int; latched : bool }

let counter_program =
  let init ~self:_ =
    ( { count = 0; latched = false },
      [ Gcn.Set_timer { timer = t_timer; after = 1.0 } ] )
  in
  let tick =
    Gcn.on_timeout "tick" t_timer (fun ~self:_ s ->
        Some
          ( { s with count = s.count + 1 },
            [ Gcn.Set_timer { timer = t_timer; after = 1.0 } ] ))
  in
  let recv =
    Gcn.on_receive "recv" (fun ~self:_ s ~sender:_ msg ->
        Some ({ s with count = s.count + msg }, [ Gcn.Broadcast (s.count + msg) ]))
  in
  let sat =
    {
      Gcn.sname = "sat";
      sguard = (fun s -> s.count >= 10 && not s.latched);
      scommand = (fun ~self:_ s -> ({ s with latched = true }, [ Gcn.Broadcast (-1) ]));
    }
  in
  { Gcn.init; actions = [ tick; recv ]; spontaneous = [ sat ] }

let test_init_effects () =
  let _, effects = Gcn.Instance.create counter_program ~self:3 in
  Alcotest.(check int) "one boot effect" 1 (List.length effects);
  match effects with
  | [ Gcn.Set_timer { timer; after } ] ->
    Alcotest.(check string) "timer name" "t" (Gcn.Timer.name timer);
    Alcotest.(check (float 1e-9)) "delay" 1.0 after
  | _ -> Alcotest.fail "expected a Set_timer effect"

let test_timeout_dispatch () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 in
  let effects = Gcn.Instance.deliver inst (Gcn.Timeout t_timer) in
  Alcotest.(check int) "count" 1 (Gcn.Instance.state inst).count;
  Alcotest.(check int) "rearm effect" 1 (List.length effects)

let test_unknown_timeout_ignored () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 in
  let effects =
    Gcn.Instance.deliver inst (Gcn.Timeout (Gcn.Timer.intern "nope"))
  in
  Alcotest.(check int) "no effects" 0 (List.length effects);
  Alcotest.(check int) "state unchanged" 0 (Gcn.Instance.state inst).count

let test_receive_dispatch () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 in
  let effects = Gcn.Instance.deliver inst (Gcn.Receive { sender = 9; msg = 5 }) in
  Alcotest.(check int) "count" 5 (Gcn.Instance.state inst).count;
  match effects with
  | [ Gcn.Broadcast 5 ] -> ()
  | _ -> Alcotest.fail "expected Broadcast 5"

let test_spontaneous_fires_once () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 in
  let effects = Gcn.Instance.deliver inst (Gcn.Receive { sender = 1; msg = 12 }) in
  (* recv effect then the latch broadcast from the spontaneous action *)
  Alcotest.(check int) "two effects" 2 (List.length effects);
  Alcotest.(check bool) "latched" true (Gcn.Instance.state inst).latched;
  (* Further triggers do not re-fire the latched spontaneous action. *)
  let effects2 = Gcn.Instance.deliver inst (Gcn.Timeout t_timer) in
  Alcotest.(check int) "only rearm" 1 (List.length effects2)

let fire_counts = Alcotest.(list (pair string int))

let test_fire_counts () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 in
  Alcotest.(check fire_counts) "nothing fired at boot"
    [ ("tick", 0); ("recv", 0); ("sat", 0) ]
    (Gcn.Instance.fire_counts inst);
  ignore (Gcn.Instance.deliver inst (Gcn.Timeout t_timer));
  ignore (Gcn.Instance.deliver inst (Gcn.Timeout t_timer));
  ignore (Gcn.Instance.deliver inst (Gcn.Receive { sender = 1; msg = 12 }));
  (* An ignored trigger counts nothing. *)
  ignore (Gcn.Instance.deliver inst (Gcn.Timeout x_timer));
  Alcotest.(check fire_counts) "guarded actions, then spontaneous"
    [ ("tick", 2); ("recv", 1); ("sat", 1) ]
    (Gcn.Instance.fire_counts inst)

let test_first_enabled_action_wins () =
  (* Two actions both match the same timeout; declaration order decides. *)
  let mk name v = Gcn.on_timeout name x_timer (fun ~self:_ _s -> Some (v, [])) in
  let program =
    { Gcn.init = (fun ~self:_ -> (0, [])); actions = [ mk "a" 1; mk "b" 2 ]; spontaneous = [] }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 in
  ignore (Gcn.Instance.deliver inst (Gcn.Timeout x_timer));
  Alcotest.(check int) "first action fired" 1 (Gcn.Instance.state inst)

let test_guard_false_falls_through () =
  (* The first action's guard rejects even numbers; the second accepts. *)
  let odd_only =
    Gcn.on_receive "odd" (fun ~self:_ s ~sender:_ msg ->
        if msg mod 2 = 1 then Some (s + msg, []) else None)
  in
  let any =
    Gcn.on_receive "any" (fun ~self:_ s ~sender:_ msg -> Some (s + (100 * msg), []))
  in
  let program =
    { Gcn.init = (fun ~self:_ -> (0, [])); actions = [ odd_only; any ]; spontaneous = [] }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 in
  ignore (Gcn.Instance.deliver inst (Gcn.Receive { sender = 0; msg = 3 }));
  Alcotest.(check int) "odd handled by first" 3 (Gcn.Instance.state inst);
  ignore (Gcn.Instance.deliver inst (Gcn.Receive { sender = 0; msg = 2 }));
  Alcotest.(check int) "even fell through" 203 (Gcn.Instance.state inst)

let test_round_end_trigger () =
  let program =
    {
      Gcn.init = (fun ~self:_ -> (0, []));
      actions =
        [
          Gcn.on_any "process" (fun ~self:_ s trigger ->
              match trigger with Gcn.Round_end -> Some (s + 1, []) | _ -> None);
        ];
      spontaneous = [];
    }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 in
  ignore (Gcn.Instance.deliver inst Gcn.Round_end);
  ignore (Gcn.Instance.deliver inst Gcn.Round_end);
  Alcotest.(check int) "two rounds" 2 (Gcn.Instance.state inst)

let test_divergent_spontaneous_detected () =
  let runaway =
    {
      Gcn.sname = "runaway";
      sguard = (fun _ -> true);
      scommand = (fun ~self:_ s -> (s + 1, []));
    }
  in
  let program =
    { Gcn.init = (fun ~self:_ -> (0, [])); actions = []; spontaneous = [ runaway ] }
  in
  Alcotest.check_raises "divergence"
    (Gcn.Divergent "spontaneous actions did not settle") (fun () ->
      ignore (Gcn.Instance.create program ~self:0))

let test_spontaneous_chain () =
  (* Two spontaneous actions that enable each other once: a then b. *)
  let a =
    {
      Gcn.sname = "a";
      sguard = (fun (x, _) -> x = 1);
      scommand = (fun ~self:_ (_, y) -> ((2, y), [ Gcn.Broadcast "a" ]));
    }
  in
  let b =
    {
      Gcn.sname = "b";
      sguard = (fun (x, y) -> x = 2 && not y);
      scommand = (fun ~self:_ (x, _) -> ((x, true), [ Gcn.Broadcast "b" ]));
    }
  in
  let bump = Gcn.on_timeout "bump" go_timer (fun ~self:_ (_, y) -> Some ((1, y), [])) in
  let program =
    { Gcn.init = (fun ~self:_ -> ((0, false), [])); actions = [ bump ]; spontaneous = [ a; b ] }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 in
  let effects = Gcn.Instance.deliver inst (Gcn.Timeout go_timer) in
  Alcotest.(check (list string)) "effects of a, then of b" [ "a"; "b" ]
    (List.map (function Gcn.Broadcast m -> m | _ -> "?") effects);
  Alcotest.(check fire_counts) "each fired once"
    [ ("bump", 1); ("a", 1); ("b", 1) ]
    (Gcn.Instance.fire_counts inst)

let test_self_passed_to_handlers () =
  let program =
    {
      Gcn.init = (fun ~self -> (self, []));
      actions = [];
      spontaneous = [];
    }
  in
  let inst, _ = Gcn.Instance.create program ~self:17 in
  Alcotest.(check int) "self" 17 (Gcn.Instance.self inst);
  Alcotest.(check int) "state init saw self" 17 (Gcn.Instance.state inst)

(* ------------------------------------------------------------------ *)
(* Keyed dispatch against a linear-scan reference                     *)
(* ------------------------------------------------------------------ *)

(* Random programs over an int accumulator plus a latch word that lets each
   spontaneous action fire at most once between guarded fires (so every
   random program settles).  Guarded action [i] is keyed on [on] and
   enabled when [(acc + code trigger) mod m = r]; its handler ignores its
   own key, so only the dispatcher keeps it from foreign triggers. *)
type qstate = { acc : int; latch : int }

let q_timers = Array.map Gcn.Timer.intern [| "q-a"; "q-b"; "q-c"; "q-unnamed" |]

type action_spec = { key : int; m : int; r : int }
(* key: 0..2 a named timer, 3 any timeout, 4 receive, 5 anything *)

type spont_spec = { sm : int; sr : int }

type program_spec = { specs : action_spec list; sponts : spont_spec list }

let key_of spec =
  match spec.key with
  | (0 | 1 | 2) as i -> Gcn.On_timer q_timers.(i)
  | 3 -> Gcn.On_any_timeout
  | 4 -> Gcn.On_receive
  | _ -> Gcn.On_any

let code = function
  | Gcn.Timeout t -> Gcn.Timer.id t
  | Gcn.Receive { msg; _ } -> msg
  | Gcn.Round_end -> 7

let random_program { specs; sponts } =
  let actions =
    List.mapi
      (fun i spec ->
        {
          Gcn.name = Printf.sprintf "a%d" i;
          on = key_of spec;
          handler =
            (fun ~self:_ s trigger ->
              if (s.acc + code trigger) mod spec.m = spec.r then
                Some
                  ( { acc = ((s.acc * 7) + i + 1) mod 1009; latch = 0 },
                    [ Gcn.Broadcast i ] )
              else None);
        })
      specs
  in
  let spontaneous =
    List.mapi
      (fun j { sm; sr } ->
        let bit = 1 lsl j in
        {
          Gcn.sname = Printf.sprintf "s%d" j;
          sguard = (fun s -> s.acc mod sm = sr && s.latch land bit = 0);
          scommand =
            (fun ~self:_ s ->
              ( { acc = (s.acc + 3) mod 1009; latch = s.latch lor bit },
                [ Gcn.Broadcast (100 + j) ] ));
        })
      sponts
  in
  {
    Gcn.init = (fun ~self:_ -> ({ acc = 0; latch = 0 }, [ Gcn.Broadcast (-1) ]));
    actions;
    spontaneous;
  }

(* The runtime's contract, written as plainly as possible: offer the
   trigger to every action in declaration order, skipping those not keyed
   for it; the first enabled one fires; then settle. *)
module Reference = struct
  let offered (on : Gcn.key) trigger =
    match (on, trigger) with
    | Gcn.On_timer t, Gcn.Timeout u -> Gcn.Timer.equal t u
    | Gcn.On_any_timeout, Gcn.Timeout _ | Gcn.On_receive, Gcn.Receive _ | Gcn.On_any, _ ->
      true
    | (Gcn.On_timer _ | Gcn.On_any_timeout | Gcn.On_receive), _ -> false

  type t = {
    program : (qstate, int) Gcn.program;
    mutable state : qstate;
    counts : (string, int) Hashtbl.t;
  }

  let bump t name =
    Hashtbl.replace t.counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

  let settle t =
    let rec loop acc =
      match List.find_opt (fun sp -> sp.Gcn.sguard t.state) t.program.Gcn.spontaneous with
      | None -> acc
      | Some sp ->
        let state, effects = sp.Gcn.scommand ~self:0 t.state in
        t.state <- state;
        bump t sp.Gcn.sname;
        loop (acc @ effects)
    in
    loop []

  let create program =
    let state, boot = program.Gcn.init ~self:0 in
    let t = { program; state; counts = Hashtbl.create 8 } in
    let settled = settle t in
    (t, boot @ settled)

  let deliver t trigger =
    let rec scan = function
      | [] -> []
      | a :: rest when not (offered a.Gcn.on trigger) -> scan rest
      | a :: rest -> (
        match a.Gcn.handler ~self:0 t.state trigger with
        | None -> scan rest
        | Some (state, effects) ->
          t.state <- state;
          bump t a.Gcn.name;
          effects)
    in
    let fired = scan t.program.Gcn.actions in
    fired @ settle t

  let fire_counts t =
    List.map
      (fun name -> (name, Option.value ~default:0 (Hashtbl.find_opt t.counts name)))
      (List.map (fun a -> a.Gcn.name) t.program.Gcn.actions
      @ List.map (fun sp -> sp.Gcn.sname) t.program.Gcn.spontaneous)
end

let gen_program_spec =
  QCheck.Gen.(
    let action =
      map3
        (fun key m r -> { key; m; r = r mod m })
        (int_bound 5) (int_range 1 3) (int_bound 2)
    in
    let spont = map2 (fun sm sr -> { sm; sr = sr mod sm }) (int_range 1 4) (int_bound 3) in
    map2
      (fun specs sponts -> { specs; sponts })
      (list_size (int_range 0 8) action)
      (list_size (int_range 0 3) spont))

let gen_trigger =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Gcn.Timeout q_timers.(i)) (int_bound 3));
        (3, map (fun msg -> Gcn.Receive { sender = 1; msg }) (int_bound 5));
        (1, return Gcn.Round_end);
      ])

let print_case (spec, triggers) =
  let key = function 0 | 1 | 2 -> "timer" | 3 -> "any-timeout" | 4 -> "receive" | _ -> "any" in
  Printf.sprintf "actions=[%s] spontaneous=[%s] triggers=[%s]"
    (String.concat "; "
       (List.map (fun a -> Printf.sprintf "%s%d m=%d r=%d" (key a.key) a.key a.m a.r) spec.specs))
    (String.concat "; " (List.map (fun s -> Printf.sprintf "m=%d r=%d" s.sm s.sr) spec.sponts))
    (String.concat "; "
       (List.map
          (function
            | Gcn.Timeout t -> Gcn.Timer.name t
            | Gcn.Receive { msg; _ } -> Printf.sprintf "rcv %d" msg
            | Gcn.Round_end -> "round-end")
          triggers))

let broadcasts effects = List.map (function Gcn.Broadcast m -> m | _ -> min_int) effects

let prop_keyed_matches_linear_scan =
  QCheck.Test.make ~count:500 ~name:"keyed dispatch = linear scan"
    (QCheck.make ~print:print_case
       QCheck.Gen.(pair gen_program_spec (list_size (int_bound 40) gen_trigger)))
    (fun (spec, triggers) ->
      let program = random_program spec in
      let inst, boot = Gcn.Instance.create program ~self:0 in
      let reference, ref_boot = Reference.create program in
      broadcasts boot = broadcasts ref_boot
      && List.for_all
           (fun trigger ->
             let effects = Gcn.Instance.deliver inst trigger in
             let expected = Reference.deliver reference trigger in
             broadcasts effects = broadcasts expected
             && Gcn.Instance.state inst = reference.Reference.state)
           triggers
      && Gcn.Instance.fire_counts inst = Reference.fire_counts reference)

(* ------------------------------------------------------------------ *)
(* Timer interning                                                    *)
(* ------------------------------------------------------------------ *)

let test_intern_idempotent () =
  let a = Gcn.Timer.intern "idem-test" in
  let b = Gcn.Timer.intern "idem-test" in
  Alcotest.(check bool) "same id" true (Gcn.Timer.equal a b);
  Alcotest.(check int) "ids equal" (Gcn.Timer.id a) (Gcn.Timer.id b);
  Alcotest.(check string) "name round-trips" "idem-test" (Gcn.Timer.name a)

let test_intern_distinct () =
  let a = Gcn.Timer.intern "distinct-a" in
  let b = Gcn.Timer.intern "distinct-b" in
  Alcotest.(check bool) "different ids" false (Gcn.Timer.equal a b);
  Alcotest.(check bool) "compare is consistent" true
    (Gcn.Timer.compare a b <> 0)

let test_intern_ids_dense () =
  let before = Gcn.Timer.count () in
  let t = Gcn.Timer.intern (Printf.sprintf "dense-%d" before) in
  Alcotest.(check int) "fresh name gets the next id" before (Gcn.Timer.id t);
  Alcotest.(check int) "count grows by one" (before + 1) (Gcn.Timer.count ())

let test_intern_across_domains () =
  (* All domains racing to intern the same names must agree on the ids. *)
  let names = List.init 16 (Printf.sprintf "race-%d") in
  let worker () = List.map (fun n -> Gcn.Timer.id (Gcn.Timer.intern n)) names in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let local = worker () in
  List.iter
    (fun d ->
      Alcotest.(check (list int)) "domain agrees with main" local
        (Domain.join d))
    domains;
  (* And the registry kept names resolvable. *)
  List.iter2
    (fun n id ->
      Alcotest.(check string) "name resolvable" n
        (Gcn.Timer.name (Gcn.Timer.intern (Gcn.Timer.name (Gcn.Timer.intern n))));
      ignore id)
    names local

let () =
  Alcotest.run "gcn"
    [
      ( "runtime",
        [
          Alcotest.test_case "init effects" `Quick test_init_effects;
          Alcotest.test_case "timeout dispatch" `Quick test_timeout_dispatch;
          Alcotest.test_case "unknown timeout ignored" `Quick
            test_unknown_timeout_ignored;
          Alcotest.test_case "receive dispatch" `Quick test_receive_dispatch;
          Alcotest.test_case "spontaneous fires once" `Quick
            test_spontaneous_fires_once;
          Alcotest.test_case "fire counts" `Quick test_fire_counts;
          Alcotest.test_case "first enabled wins" `Quick
            test_first_enabled_action_wins;
          Alcotest.test_case "guard falls through" `Quick
            test_guard_false_falls_through;
          Alcotest.test_case "round end" `Quick test_round_end_trigger;
          Alcotest.test_case "divergence detected" `Quick
            test_divergent_spontaneous_detected;
          Alcotest.test_case "spontaneous chain" `Quick test_spontaneous_chain;
          Alcotest.test_case "self propagated" `Quick test_self_passed_to_handlers;
        ] );
      ("keyed dispatch", [ QCheck_alcotest.to_alcotest prop_keyed_matches_linear_scan ]);
      ( "timer interning",
        [
          Alcotest.test_case "idempotent" `Quick test_intern_idempotent;
          Alcotest.test_case "distinct names, distinct ids" `Quick
            test_intern_distinct;
          Alcotest.test_case "dense ids" `Quick test_intern_ids_dense;
          Alcotest.test_case "cross-domain agreement" `Quick
            test_intern_across_domains;
        ] );
    ]
