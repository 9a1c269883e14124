(* Tests for the discrete-event engine and link models (Slpdas_sim). *)

module Gcn = Slpdas_gcn
module Engine = Slpdas_sim.Engine
module Link_model = Slpdas_sim.Link_model
module Topology = Slpdas_wsn.Topology
module Rng = Slpdas_util.Rng

let go_timer = Gcn.Timer.intern "go"

let x_timer = Gcn.Timer.intern "x"

(* Flooding program: node 0 broadcasts "flood" at t=1; every node forwards a
   message the first time it hears it.  State: has the node forwarded? *)
let flood_program ~self =
  let init ~self =
    ( false,
      if self = 0 then [ Gcn.Set_timer { timer = go_timer; after = 1.0 } ]
      else [] )
  in
  let go =
    {
      Gcn.name = "go";
      handler =
        (fun ~self:_ _s trigger ->
          match trigger with
          | Gcn.Timeout t when Gcn.Timer.equal t go_timer ->
            Some (true, [ Gcn.Broadcast "flood" ])
          | _ -> None);
    }
  in
  let forward =
    {
      Gcn.name = "forward";
      handler =
        (fun ~self:_ forwarded trigger ->
          match trigger with
          | Gcn.Receive { msg = "flood"; _ } when not forwarded ->
            Some (true, [ Gcn.Broadcast "flood" ])
          | _ -> None);
    }
  in
  ignore self;
  { Gcn.init; actions = [ go; forward ]; spontaneous = [] }

let make_engine ?(link = Link_model.Ideal) ?(dim = 5) () =
  let topology = Topology.grid dim in
  Engine.create ~topology ~link ~rng:(Rng.create 1)
    ~program:flood_program ()

(* ------------------------------------------------------------------ *)
(* Engine basics                                                      *)
(* ------------------------------------------------------------------ *)

let test_flood_reaches_everyone () =
  let e = make_engine () in
  Engine.run_until e 10.0;
  let topo = Engine.topology e in
  let n = Slpdas_wsn.Graph.n topo.Topology.graph in
  for v = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "node %d forwarded" v) true
      (Engine.node_state e v)
  done;
  Alcotest.(check int) "each node broadcast exactly once" n (Engine.broadcasts e)

let test_time_advances () =
  let e = make_engine () in
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 (Engine.time e);
  Engine.run_until e 3.5;
  Alcotest.(check (float 1e-9)) "clock at deadline" 3.5 (Engine.time e)

let test_run_until_excludes_future () =
  let e = make_engine () in
  Engine.run_until e 0.5;
  (* The flood starts at t=1, so nothing has happened yet. *)
  Alcotest.(check int) "no broadcasts yet" 0 (Engine.broadcasts e)

let test_determinism () =
  let run () =
    let e = make_engine () in
    Engine.run_until e 10.0;
    (Engine.broadcasts e, Engine.deliveries e)
  in
  Alcotest.(check (pair int int)) "identical runs" (run ()) (run ())

let test_deliveries_counted () =
  let e = make_engine ~dim:3 () in
  Engine.run_until e 10.0;
  (* Grid 3x3 has 12 edges; every node broadcasts once; each broadcast is
     delivered to every neighbour: total deliveries = sum of degrees = 24. *)
  Alcotest.(check int) "deliveries" 24 (Engine.deliveries e)

let test_broadcasts_by_node () =
  let e = make_engine ~dim:3 () in
  Engine.run_until e 10.0;
  Alcotest.(check (array int)) "one broadcast per node" (Array.make 9 1)
    (Engine.broadcasts_by_node e)

let test_observer_sees_all_broadcasts () =
  let e = make_engine ~dim:3 () in
  let seen = ref [] in
  Engine.subscribe e (function
    | Slpdas_sim.Event.Broadcast { sender; _ } -> seen := sender :: !seen
    | _ -> ());
  Engine.run_until e 10.0;
  Alcotest.(check (list int)) "all senders observed"
    (List.init 9 Fun.id)
    (List.sort compare !seen)

let test_stop_halts_run () =
  let e = make_engine () in
  Engine.subscribe e (function
    | Slpdas_sim.Event.Broadcast _ -> Engine.stop e
    | _ -> ());
  Engine.run_until e 10.0;
  Alcotest.(check bool) "stopped" true (Engine.stopped e);
  Alcotest.(check int) "halted after first broadcast" 1 (Engine.broadcasts e)

let test_schedule_callback () =
  let e = make_engine () in
  let fired_at = ref nan in
  Engine.schedule e ~at:2.5 (fun e -> fired_at := Engine.time e);
  Engine.run_until e 10.0;
  Alcotest.(check (float 1e-9)) "callback time" 2.5 !fired_at

let test_schedule_past_rejected () =
  let e = make_engine () in
  Engine.run_until e 5.0;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time is in the past")
    (fun () -> Engine.schedule e ~at:1.0 (fun _ -> ()))

let test_inject_trigger () =
  let e = make_engine ~dim:3 () in
  (* Inject the flood trigger into node 4 directly at t=0. *)
  Engine.inject e ~node:4 (Gcn.Receive { sender = 4; msg = "flood" });
  Alcotest.(check bool) "node 4 forwarded" true (Engine.node_state e 4);
  Alcotest.(check int) "one broadcast" 1 (Engine.broadcasts e)

let test_step_granularity () =
  let e = make_engine ~dim:3 () in
  Alcotest.(check bool) "first step works" true (Engine.step e);
  let rec drain n = if Engine.step e then drain (n + 1) else n in
  let steps = drain 1 in
  Alcotest.(check bool) "finite event count" true (steps > 0);
  Alcotest.(check bool) "queue exhausted" false (Engine.step e)

let test_node_fired_trace () =
  let e = make_engine ~dim:3 () in
  Engine.run_until e 10.0;
  (match Engine.node_fired e 0 with
  | "go" :: _ -> ()
  | trace ->
    Alcotest.failf "unexpected trace for node 0: %s" (String.concat "," trace));
  match List.rev (Engine.node_fired e 4) with
  | "init" :: "forward" :: _ -> ()
  | trace ->
    Alcotest.failf "unexpected trace for node 4: %s" (String.concat "," trace)

(* Timer semantics: a rearmed timer supersedes the old deadline. *)
let count_x_program ~effects ~self:_ =
  let init ~self:_ = (0, effects) in
  let x =
    {
      Gcn.name = "x";
      handler =
        (fun ~self:_ s trigger ->
          match trigger with
          | Gcn.Timeout t when Gcn.Timer.equal t x_timer -> Some (s + 1, [])
          | _ -> None);
    }
  in
  { Gcn.init; actions = [ x ]; spontaneous = [] }

let test_timer_reset_supersedes () =
  let effects =
    [
      Gcn.Set_timer { timer = x_timer; after = 5.0 };
      (* immediately rearm: only the later deadline should fire *)
      Gcn.Set_timer { timer = x_timer; after = 8.0 };
    ]
  in
  let topology = Topology.line 2 in
  let e =
    Engine.create ~topology ~link:Link_model.Ideal ~rng:(Rng.create 1)
      ~program:(count_x_program ~effects) ()
  in
  Engine.run_until e 6.0;
  Alcotest.(check int) "not fired at the stale deadline" 0 (Engine.node_state e 0);
  Engine.run_until e 9.0;
  Alcotest.(check int) "fired once at the new deadline" 1 (Engine.node_state e 0)

let test_stop_timer_cancels () =
  let effects =
    [ Gcn.Set_timer { timer = x_timer; after = 2.0 }; Gcn.Stop_timer x_timer ]
  in
  let topology = Topology.line 2 in
  let e =
    Engine.create ~topology ~link:Link_model.Ideal ~rng:(Rng.create 1)
      ~program:(count_x_program ~effects) ()
  in
  Engine.run_until e 10.0;
  Alcotest.(check int) "cancelled" 0 (Engine.node_state e 0)

(* Timers interned only after engine creation must still work: the
   engine's per-node generation rows are sized to the intern registry at
   [create] and grow on demand. *)
let test_late_interned_timer () =
  let fresh = ref None in
  let effects = [ Gcn.Set_timer { timer = x_timer; after = 1.0 } ] in
  let program ~self =
    let p = count_x_program ~effects ~self in
    let late =
      {
        Gcn.name = "late";
        handler =
          (fun ~self:_ s trigger ->
            match (trigger, !fresh) with
            | Gcn.Timeout t, Some tm when Gcn.Timer.equal t tm ->
              Some (s + 100, [])
            | Gcn.Timeout t, Some tm when Gcn.Timer.equal t x_timer ->
              Some (s, [ Gcn.Set_timer { timer = tm; after = 1.0 } ])
            | _ -> None);
      }
    in
    { p with Gcn.actions = [ late ] }
  in
  let topology = Topology.line 2 in
  let e =
    Engine.create ~topology ~link:Link_model.Ideal ~rng:(Rng.create 1)
      ~program ()
  in
  let rows = Gcn.Timer.count () in
  let late = Gcn.Timer.intern (Printf.sprintf "late-%d" rows) in
  fresh := Some late;
  Alcotest.(check bool) "id lies beyond the rows sized at create" true
    (Gcn.Timer.id late >= rows);
  Engine.run_until e 10.0;
  Alcotest.(check int) "late timer fired" 100 (Engine.node_state e 0)

(* ------------------------------------------------------------------ *)
(* Destructive interference (airtime)                                 *)
(* ------------------------------------------------------------------ *)

(* Nodes 0 and 2 each transmit once at a configured time; node 1 (between
   them) counts receptions.  Line topology 0 - 1 - 2. *)
let two_senders_program ~at0 ~at2 ~self =
  let init ~self =
    ( 0,
      if self = 0 then [ Gcn.Set_timer { timer = go_timer; after = at0 } ]
      else if self = 2 then [ Gcn.Set_timer { timer = go_timer; after = at2 } ]
      else [] )
  in
  let go =
    {
      Gcn.name = "go";
      handler =
        (fun ~self:_ s trigger ->
          match trigger with
          | Gcn.Timeout t when Gcn.Timer.equal t go_timer ->
            Some (s, [ Gcn.Broadcast "hi" ])
          | _ -> None);
    }
  in
  let hear =
    {
      Gcn.name = "hear";
      handler =
        (fun ~self:_ s trigger ->
          match trigger with Gcn.Receive _ -> Some (s + 1, []) | _ -> None);
    }
  in
  ignore self;
  { Gcn.init; actions = [ go; hear ]; spontaneous = [] }

let run_two_senders ?airtime ~at0 ~at2 () =
  let topology = Topology.line 3 in
  let e =
    Engine.create ?airtime ~topology ~link:Link_model.Ideal
      ~rng:(Rng.create 1)
      ~program:(fun ~self -> two_senders_program ~at0 ~at2 ~self)
      ()
  in
  Engine.run_until e 10.0;
  Engine.node_state e 1

let test_interference_jams_overlap () =
  (* Simultaneous transmissions by both neighbours: node 1 hears nothing. *)
  Alcotest.(check int) "both jammed" 0
    (run_two_senders ~airtime:0.002 ~at0:1.0 ~at2:1.0 ())

let test_interference_separated_ok () =
  Alcotest.(check int) "well separated: both received" 2
    (run_two_senders ~airtime:0.002 ~at0:1.0 ~at2:2.0 ())

let test_interference_off_by_default () =
  Alcotest.(check int) "no airtime: simultaneous ok" 2
    (run_two_senders ~at0:1.0 ~at2:1.0 ())

let test_interference_half_duplex () =
  (* Both nodes of a 2-line transmit at t=1: with airtime on, each is deaf
     to the other (overlap + half-duplex). *)
  let topology = Topology.line 2 in
  let program ~self:_ =
    let init ~self:_ = (0, [ Gcn.Set_timer { timer = go_timer; after = 1.0 } ]) in
    let go =
      {
        Gcn.name = "go";
        handler =
          (fun ~self:_ s trigger ->
            match trigger with
            | Gcn.Timeout t when Gcn.Timer.equal t go_timer ->
              Some (s, [ Gcn.Broadcast "hi" ])
            | _ -> None);
      }
    in
    let hear =
      {
        Gcn.name = "hear";
        handler =
          (fun ~self:_ s trigger ->
            match trigger with Gcn.Receive _ -> Some (s + 1, []) | _ -> None);
      }
    in
    { Gcn.init; actions = [ go; hear ]; spontaneous = [] }
  in
  let e =
    Engine.create ~airtime:0.002 ~topology ~link:Link_model.Ideal
      ~rng:(Rng.create 1) ~program ()
  in
  Engine.run_until e 10.0;
  Alcotest.(check int) "node 0 deaf while transmitting" 0 (Engine.node_state e 0);
  Alcotest.(check int) "node 1 deaf while transmitting" 0 (Engine.node_state e 1)

let test_interference_tdma_slots_avoid_it () =
  (* The point of the paper's TDMA: transmissions separated by a slot period
     (50 ms >> airtime) never interfere even among 2-hop neighbours. *)
  Alcotest.(check int) "slot separation is enough" 2
    (run_two_senders ~airtime:0.002 ~at0:1.0 ~at2:1.05 ())

(* ------------------------------------------------------------------ *)
(* Broadcast logging on the event bus (the former Trace module)       *)
(* ------------------------------------------------------------------ *)

(* Record every broadcast as (time, sender, label), oldest first — what
   Trace.attach used to do, as a three-line subscriber. *)
let broadcast_log e ~describe =
  let log = ref [] in
  Engine.subscribe e (function
    | Slpdas_sim.Event.Broadcast { time; sender; msg } ->
      log := (time, sender, describe msg) :: !log
    | _ -> ());
  fun () -> List.rev !log

let test_bus_records_broadcasts () =
  let e = make_engine ~dim:3 () in
  let log = broadcast_log e ~describe:(fun m -> m) in
  Engine.run_until e 10.0;
  let entries = log () in
  Alcotest.(check int) "one entry per broadcast" (Engine.broadcasts e)
    (List.length entries);
  let t0, sender0, label0 = List.hd entries in
  Alcotest.(check int) "first sender is the initiator" 0 sender0;
  Alcotest.(check string) "label" "flood" label0;
  Alcotest.(check (float 1e-9)) "starts at the go timer" 1.0 t0;
  let rec times_increase = function
    | (a, _, _) :: ((b, _, _) :: _ as rest) -> a <= b && times_increase rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (times_increase entries)

let test_bus_time_window () =
  let e = make_engine ~dim:3 () in
  let log = broadcast_log e ~describe:(fun m -> m) in
  Engine.run_until e 10.0;
  let between ~since ~until =
    List.filter (fun (t, _, _) -> since <= t && t < until) (log ())
  in
  (* Node 0 fires at t=1; forwards happen shortly after. *)
  Alcotest.(check int) "nothing before the start" 0
    (List.length (between ~since:0.0 ~until:1.0));
  Alcotest.(check int) "everything afterwards" (Engine.broadcasts e)
    (List.length (between ~since:1.0 ~until:10.0))

(* ------------------------------------------------------------------ *)
(* Event bus                                                          *)
(* ------------------------------------------------------------------ *)

module Event = Slpdas_sim.Event

let test_counters_track_broadcasts_and_deliveries () =
  let e = make_engine ~dim:3 () in
  Engine.run_until e 10.0;
  let c = Engine.counters e in
  Alcotest.(check int) "runs" 1 c.Event.runs;
  Alcotest.(check int) "broadcasts" (Engine.broadcasts e) c.Event.broadcasts;
  Alcotest.(check int) "deliveries" (Engine.deliveries e) c.Event.deliveries;
  Alcotest.(check int) "no link drops on ideal" 0 c.Event.drops_link;
  Alcotest.(check int) "no collisions without airtime" 0 c.Event.drops_collision;
  (* One "go" timer on node 0 drives the whole flood. *)
  Alcotest.(check int) "timer fires" 1 c.Event.timer_fires;
  (match c.Event.first_event with
  | Some t -> Alcotest.(check (float 1e-9)) "first event at the timer" 1.0 t
  | None -> Alcotest.fail "no first_event");
  Alcotest.(check bool) "last event recorded" true (c.Event.last_event <> None)

let test_lossy_drops_counted () =
  let e = make_engine ~dim:3 ~link:(Link_model.Lossy 0.5) () in
  Engine.run_until e 20.0;
  let c = Engine.counters e in
  (* Under the ideal radio every broadcast would reach each neighbour, so
     attempts = deliveries + link drops exactly. *)
  let attempts =
    let topo = Engine.topology e in
    let g = topo.Topology.graph in
    Array.to_list (Engine.broadcasts_by_node e)
    |> List.mapi (fun v count ->
           count * Array.length (Slpdas_wsn.Graph.neighbours g v))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "deliveries + drops = attempts" attempts
    (c.Event.deliveries + c.Event.drops_link);
  Alcotest.(check bool) "some drops at p=0.5" true (c.Event.drops_link > 0)

let test_collision_drops_counted () =
  (* Simultaneous neighbours under airtime: both transmissions jam node 1. *)
  let topology = Topology.line 3 in
  let e =
    Engine.create ~airtime:0.002 ~topology ~link:Link_model.Ideal
      ~rng:(Rng.create 1)
      ~program:(fun ~self -> two_senders_program ~at0:1.0 ~at2:1.0 ~self)
      ()
  in
  Engine.run_until e 10.0;
  let c = (Engine.counters e : Event.counters) in
  Alcotest.(check int) "both arrivals jammed" 2 c.Event.drops_collision;
  Alcotest.(check int) "no ordinary drops" 0 c.Event.drops_link

let test_subscribers_see_drops () =
  let e = make_engine ~dim:3 ~link:(Link_model.Lossy 0.5) () in
  let drops = ref 0 in
  Engine.subscribe e (function
    | Event.Drop { collision = false; _ } -> incr drops
    | _ -> ());
  Engine.run_until e 20.0;
  Alcotest.(check int) "subscriber count matches tally" !drops
    (Engine.counters e).Event.drops_link

let test_emit_reaches_subscribers_and_counters () =
  let e = make_engine ~dim:3 () in
  let heard = ref [] in
  Engine.subscribe e (fun ev -> heard := Event.kind_name ev :: !heard);
  Engine.emit e (Event.Phase_transition { time = 0.0; phase = "setup" });
  Engine.emit e (Event.Attacker_move { time = 0.5; from_node = 0; to_node = 1 });
  let c = Engine.counters e in
  Alcotest.(check (list string)) "subscriber saw both"
    [ "phase"; "attacker-move" ]
    (List.rev !heard);
  Alcotest.(check int) "phase transitions" 1 c.Event.phase_transitions;
  Alcotest.(check int) "attacker moves" 1 c.Event.attacker_moves

let test_emit_does_not_perturb_run () =
  (* emit is notify-only: a run with harness events interleaved is
     bit-for-bit the run without them. *)
  let run ~noisy =
    let e = make_engine ~dim:3 () in
    if noisy then
      Engine.subscribe e (function
        | Event.Broadcast { time; sender; _ } ->
          Engine.emit e
            (Event.Attacker_move { time; from_node = sender; to_node = sender })
        | _ -> ());
    Engine.run_until e 10.0;
    (Engine.broadcasts e, Engine.deliveries e, Engine.time e)
  in
  Alcotest.(check (triple int int (float 1e-9)))
    "identical" (run ~noisy:false) (run ~noisy:true)

let test_counters_merge () =
  let e1 = make_engine ~dim:3 () in
  Engine.run_until e1 10.0;
  let e2 = make_engine ~dim:5 () in
  Engine.run_until e2 10.0;
  let c1 = Engine.counters e1 and c2 = Engine.counters e2 in
  let m = Event.merge c1 c2 in
  Alcotest.(check int) "runs add" 2 m.Event.runs;
  Alcotest.(check int) "broadcasts add" (c1.Event.broadcasts + c2.Event.broadcasts)
    m.Event.broadcasts;
  Alcotest.(check bool) "merge commutes" true (Event.merge c2 c1 = m);
  Alcotest.(check bool) "empty is identity" true (Event.merge Event.empty c1 = c1);
  Alcotest.(check bool) "merge_all folds" true (Event.merge_all [ c1; c2 ] = m)

let test_counters_to_json () =
  let e = make_engine ~dim:3 () in
  Engine.run_until e 10.0;
  let json = Event.to_json (Engine.counters e) in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json mentions %s" needle) true
        (contains needle))
    [ "\"broadcasts\""; "\"deliveries\""; "\"drops_link\""; "\"runs\"" ]

(* ------------------------------------------------------------------ *)
(* Failure injection                                                  *)
(* ------------------------------------------------------------------ *)

let test_failed_node_is_silent () =
  (* Fail node 0 before its "go" timer fires: the flood never starts. *)
  let e = make_engine ~dim:3 () in
  Engine.fail_node e 0;
  Engine.run_until e 10.0;
  Alcotest.(check bool) "marked failed" true (Engine.node_failed e 0);
  Alcotest.(check int) "no broadcasts at all" 0 (Engine.broadcasts e)

let test_failed_node_drops_receptions () =
  (* Fail a middle node: the flood must route around it.  On a 3x3 grid,
     failing the centre still leaves the ring connected. *)
  let e = make_engine ~dim:3 () in
  Engine.fail_node e 4;
  Engine.run_until e 10.0;
  Alcotest.(check bool) "centre did not forward" false (Engine.node_state e 4);
  (* All other nodes still forwarded (ring remains connected). *)
  for v = 0 to 8 do
    if v <> 4 then
      Alcotest.(check bool) (Printf.sprintf "node %d forwarded" v) true
        (Engine.node_state e v)
  done;
  Alcotest.(check int) "eight broadcasts" 8 (Engine.broadcasts e)

let test_failure_partitions_flood () =
  (* On a line 0-1-2-3-4, failing node 2 partitions the flood. *)
  let topology = Topology.line 5 in
  let e =
    Engine.create ~topology ~link:Link_model.Ideal ~rng:(Rng.create 1)
      ~program:flood_program ()
  in
  Engine.fail_node e 2;
  Engine.run_until e 10.0;
  Alcotest.(check bool) "node 1 reached" true (Engine.node_state e 1);
  Alcotest.(check bool) "node 3 cut off" false (Engine.node_state e 3);
  Alcotest.(check bool) "node 4 cut off" false (Engine.node_state e 4)

let test_fail_node_bounds () =
  let e = make_engine ~dim:3 () in
  Alcotest.check_raises "range" (Invalid_argument "Engine.fail_node: node out of range")
    (fun () -> Engine.fail_node e 9)

(* ------------------------------------------------------------------ *)
(* Link models                                                        *)
(* ------------------------------------------------------------------ *)

let test_ideal_always_delivers () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "delivered" true
      (Link_model.delivered Link_model.Ideal rng ~distance_m:1000.0)
  done

let test_lossy_rate () =
  let rng = Rng.create 6 in
  let p =
    Link_model.expected_delivery (Link_model.Lossy 0.25) ~distance_m:1.0
      ~samples:20_000 rng
  in
  Alcotest.(check bool) "delivery near 0.75" true (abs_float (p -. 0.75) < 0.02)

let test_lossy_extremes () =
  let rng = Rng.create 7 in
  Alcotest.(check bool) "p=0 lossless" true
    (Link_model.delivered (Link_model.Lossy 0.0) rng ~distance_m:1.0);
  Alcotest.(check bool) "p=1 dead" false
    (Link_model.delivered (Link_model.Lossy 1.0) rng ~distance_m:1.0)

let test_gaussian_distance_monotone () =
  let rng = Rng.create 8 in
  let at d =
    Link_model.expected_delivery Link_model.default_gaussian ~distance_m:d
      ~samples:5_000 rng
  in
  let near = at 4.5 and mid = at 60.0 and far = at 500.0 in
  Alcotest.(check bool) "near link reliable" true (near > 0.95);
  Alcotest.(check bool) "monotone decay" true (near >= mid && mid >= far);
  Alcotest.(check bool) "far link dead" true (far < 0.2)

let test_flood_with_losses_still_counted () =
  (* With a very lossy channel the flood may not cover the grid, but the
     engine's invariant deliveries <= broadcasts * max_degree holds. *)
  let e = make_engine ~link:(Link_model.Lossy 0.5) () in
  Engine.run_until e 20.0;
  Alcotest.(check bool) "bounded deliveries" true
    (Engine.deliveries e <= 4 * Engine.broadcasts e)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "flood coverage" `Quick test_flood_reaches_everyone;
          Alcotest.test_case "time advances" `Quick test_time_advances;
          Alcotest.test_case "deadline respected" `Quick
            test_run_until_excludes_future;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "deliveries counted" `Quick test_deliveries_counted;
          Alcotest.test_case "per-node broadcasts" `Quick test_broadcasts_by_node;
          Alcotest.test_case "observer coverage" `Quick
            test_observer_sees_all_broadcasts;
          Alcotest.test_case "stop" `Quick test_stop_halts_run;
          Alcotest.test_case "scheduled callback" `Quick test_schedule_callback;
          Alcotest.test_case "past schedule rejected" `Quick
            test_schedule_past_rejected;
          Alcotest.test_case "inject" `Quick test_inject_trigger;
          Alcotest.test_case "step" `Quick test_step_granularity;
          Alcotest.test_case "fired traces" `Quick test_node_fired_trace;
          Alcotest.test_case "timer reset" `Quick test_timer_reset_supersedes;
          Alcotest.test_case "timer cancel" `Quick test_stop_timer_cancels;
          Alcotest.test_case "late-interned timer" `Quick
            test_late_interned_timer;
        ] );
      ( "interference",
        [
          Alcotest.test_case "overlap jams" `Quick test_interference_jams_overlap;
          Alcotest.test_case "separation delivers" `Quick test_interference_separated_ok;
          Alcotest.test_case "off by default" `Quick test_interference_off_by_default;
          Alcotest.test_case "half duplex" `Quick test_interference_half_duplex;
          Alcotest.test_case "TDMA slots avoid it" `Quick
            test_interference_tdma_slots_avoid_it;
        ] );
      ( "broadcast log",
        [
          Alcotest.test_case "records broadcasts" `Quick
            test_bus_records_broadcasts;
          Alcotest.test_case "time window" `Quick test_bus_time_window;
        ] );
      ( "events",
        [
          Alcotest.test_case "counters track run" `Quick
            test_counters_track_broadcasts_and_deliveries;
          Alcotest.test_case "lossy drops counted" `Quick test_lossy_drops_counted;
          Alcotest.test_case "collision drops counted" `Quick
            test_collision_drops_counted;
          Alcotest.test_case "subscribers see drops" `Quick
            test_subscribers_see_drops;
          Alcotest.test_case "emit" `Quick
            test_emit_reaches_subscribers_and_counters;
          Alcotest.test_case "emit does not perturb" `Quick
            test_emit_does_not_perturb_run;
          Alcotest.test_case "merge" `Quick test_counters_merge;
          Alcotest.test_case "to_json" `Quick test_counters_to_json;
        ] );
      ( "failures",
        [
          Alcotest.test_case "failed node silent" `Quick test_failed_node_is_silent;
          Alcotest.test_case "flood routes around failure" `Quick
            test_failed_node_drops_receptions;
          Alcotest.test_case "failure partitions flood" `Quick
            test_failure_partitions_flood;
          Alcotest.test_case "bounds" `Quick test_fail_node_bounds;
        ] );
      ( "link models",
        [
          Alcotest.test_case "ideal" `Quick test_ideal_always_delivers;
          Alcotest.test_case "lossy rate" `Slow test_lossy_rate;
          Alcotest.test_case "lossy extremes" `Quick test_lossy_extremes;
          Alcotest.test_case "gaussian monotone" `Slow
            test_gaussian_distance_monotone;
          Alcotest.test_case "lossy flood bounded" `Quick
            test_flood_with_losses_still_counted;
        ] );
    ]
