(* Differential tests: the engine against a spec-level oracle
   (Engine_spec, in this directory).  For the same topology, program, seeds
   and harness callbacks, the two must be observably indistinguishable: the
   full event stream, the event counters, per-node broadcast counts, final
   node states, per-action fire counts and every state a periodic harness probe reads
   — for every link model, with and without airtime, under faults and when
   a subscriber stops the run.  Programs run on networks on both sides of
   the engine's 1024-node batch cutover, so singleton and batched delivery
   are both held to the oracle.  The sharding sections then check sharded
   and coupled runs against the single engine. *)

module Topology = Slpdas_wsn.Topology
module Graph = Slpdas_wsn.Graph
module Rng = Slpdas_util.Rng
module Gcn = Slpdas_gcn
module Engine = Slpdas_sim.Engine
module Event = Slpdas_sim.Event
module Link_model = Slpdas_sim.Link_model
module Shard = Slpdas_sim.Shard
module Protocol = Slpdas_core.Protocol
module Safety = Slpdas_core.Safety
module Phantom = Slpdas_core.Phantom
module Fake_source = Slpdas_core.Fake_source
module Params = Slpdas_exp.Params
module Coupled = Slpdas_exp.Coupled
module Hunter = Slpdas_attack.Hunter
module Spec = Engine_spec

let links =
  [
    ("ideal", Link_model.Ideal);
    ("lossy", Link_model.Lossy 0.25);
    ("gaussian", Link_model.default_gaussian);
  ]

let check_counters label (expected : Event.counters) (actual : Event.counters)
    =
  let chk name f = Alcotest.(check int) (label ^ ": " ^ name) (f expected) (f actual) in
  chk "broadcasts" (fun c -> c.Event.broadcasts);
  chk "deliveries" (fun c -> c.Event.deliveries);
  chk "drops_link" (fun c -> c.Event.drops_link);
  chk "drops_collision" (fun c -> c.Event.drops_collision);
  chk "timer_fires" (fun c -> c.Event.timer_fires);
  chk "attacker_moves" (fun c -> c.Event.attacker_moves);
  chk "phase_transitions" (fun c -> c.Event.phase_transitions);
  chk "node_failures" (fun c -> c.Event.node_failures);
  chk "node_revivals" (fun c -> c.Event.node_revivals);
  chk "link_changes" (fun c -> c.Event.link_changes);
  Alcotest.(check (option (float 0.0)))
    (label ^ ": first_event") expected.Event.first_event actual.Event.first_event;
  Alcotest.(check (option (float 0.0)))
    (label ^ ": last_event") expected.Event.last_event actual.Event.last_event

(* Structural equality that short-circuits on shared values (protocol
   states embed their configuration, topology included). *)
let same a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* One harness, two engines                                           *)
(* ------------------------------------------------------------------ *)

(* What a harness does to a running engine; both engines provide it. *)
type ('s, 'm) handle = {
  subscribe : ('m Event.t -> unit) -> unit;
  emit : 'm Event.t -> unit;
  schedule : at:float -> (unit -> unit) -> unit;
  time : unit -> float;
  node_state : int -> 's;
  node_fire_counts : int -> (string * int) list;
  fail_node : int -> unit;
  revive_node : int -> unit;
  set_link_loss : a:int -> b:int -> float -> unit;
  set_global_loss : float -> unit;
  stop : unit -> unit;
  run_until : float -> unit;
  counters : unit -> Event.counters;
  broadcasts_by_node : unit -> int array;
}

let engine_handle e =
  {
    subscribe = Engine.subscribe e;
    emit = Engine.emit e;
    schedule = (fun ~at f -> Engine.schedule e ~at (fun _ -> f ()));
    time = (fun () -> Engine.time e);
    node_state = Engine.node_state e;
    node_fire_counts = Engine.node_fire_counts e;
    fail_node = Engine.fail_node e;
    revive_node = Engine.revive_node e;
    set_link_loss = Engine.set_link_loss e;
    set_global_loss = Engine.set_global_loss e;
    stop = (fun () -> Engine.stop e);
    run_until = Engine.run_until e;
    counters = (fun () -> Engine.counters e);
    broadcasts_by_node = (fun () -> Engine.broadcasts_by_node e);
  }

let spec_handle s =
  {
    subscribe = Spec.subscribe s;
    emit = Spec.emit s;
    schedule = (fun ~at f -> Spec.schedule s ~at (fun _ -> f ()));
    time = (fun () -> Spec.time s);
    node_state = Spec.node_state s;
    node_fire_counts = Spec.node_fire_counts s;
    fail_node = Spec.fail_node s;
    revive_node = Spec.revive_node s;
    set_link_loss = Spec.set_link_loss s;
    set_global_loss = Spec.set_global_loss s;
    stop = (fun () -> Spec.stop s);
    run_until = Spec.run_until s;
    counters = (fun () -> Spec.counters s);
    broadcasts_by_node = (fun () -> Spec.broadcasts_by_node s);
  }

type fault =
  | Fail of int
  | Revive of int
  | Link_loss of int * int * float
  | Global_loss of float

(* A seeded run and the harness callbacks armed on it. *)
type run = {
  topology : Topology.t;
  link : Link_model.t;
  airtime : float option;
  seed : int;
  until : float;
  probe : float * float;
      (* first time, period: a harness callback that reads every node's
         state and publishes a phase event, rescheduling itself *)
  faults : (float * fault) list;
  stop_after_deliveries : int option;
}

type ('s, 'm) obs = {
  events : 'm Event.t array;
  counters : Event.counters;
  bbn : int array;
  states : 's array;
  fired : (string * int) list array;
  probes : (float * 's array) list;
}

let drive r (h : _ handle) =
  let n = Graph.n r.topology.Topology.graph in
  let events = ref [] in
  h.subscribe (fun ev -> events := ev :: !events);
  (match r.stop_after_deliveries with
  | None -> ()
  | Some k ->
    let seen = ref 0 in
    h.subscribe (function
      | Event.Delivery _ ->
        incr seen;
        if !seen = k then h.stop ()
      | _ -> ()));
  List.iter
    (fun (at, f) ->
      h.schedule ~at (fun () ->
          match f with
          | Fail v -> h.fail_node v
          | Revive v -> h.revive_node v
          | Link_loss (a, b, p) -> h.set_link_loss ~a ~b p
          | Global_loss p -> h.set_global_loss p))
    r.faults;
  let probes = ref [] in
  let first, period = r.probe in
  let rec probe () =
    let now = h.time () in
    probes := (now, Array.init n h.node_state) :: !probes;
    h.emit (Event.Phase_transition { time = now; phase = "probe" });
    if now +. period <= r.until then h.schedule ~at:(now +. period) probe
  in
  h.schedule ~at:first probe;
  h.run_until r.until;
  {
    events = Array.of_list (List.rev !events);
    counters = h.counters ();
    bbn = h.broadcasts_by_node ();
    states = Array.init n h.node_state;
    fired = Array.init n h.node_fire_counts;
    probes = List.rev !probes;
  }

let observe_engine r ~program =
  drive r
    (engine_handle
       (Engine.create ?airtime:r.airtime ~topology:r.topology ~link:r.link
          ~rng:(Rng.create r.seed) ~program ()))

let observe_spec r ~program =
  drive r
    (spec_handle
       (Spec.create ?airtime:r.airtime ~topology:r.topology ~link:r.link
          ~rng:(Rng.create r.seed) ~program ()))

let describe ev =
  Printf.sprintf "%s@%.6f" (Event.kind_name ev) (Event.time ev)

let check_obs label (expected : _ obs) (actual : _ obs) =
  let ne = Array.length expected.events and na = Array.length actual.events in
  let rec first_diff i =
    if i >= ne || i >= na then None
    else if same expected.events.(i) actual.events.(i) then first_diff (i + 1)
    else Some i
  in
  (match first_diff 0 with
  | Some i ->
    Alcotest.failf "%s: event %d differs: oracle %s, engine %s" label i
      (describe expected.events.(i)) (describe actual.events.(i))
  | None ->
    Alcotest.(check int) (label ^ ": event stream length") ne na);
  check_counters label expected.counters actual.counters;
  Alcotest.(check bool) (label ^ ": counters equal") true
    (expected.counters = actual.counters);
  Alcotest.(check (array int)) (label ^ ": broadcasts by node") expected.bbn
    actual.bbn;
  Array.iteri
    (fun v s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: state of node %d" label v)
        true (same s actual.states.(v));
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s: fire counts of node %d" label v)
        expected.fired.(v) actual.fired.(v))
    expected.states;
  Alcotest.(check int) (label ^ ": probes taken")
    (List.length expected.probes)
    (List.length actual.probes);
  Alcotest.(check bool) (label ^ ": probed states equal") true
    (same expected.probes actual.probes)

let check_against_oracle label r ~program =
  let expected = observe_spec r ~program in
  let actual = observe_engine r ~program in
  check_obs label expected actual;
  expected

let run_of ?airtime ?(faults = []) ?stop_after_deliveries ~probe ~topology
    ~link ~seed ~until () =
  { topology; link; airtime; seed; until; probe; faults; stop_after_deliveries }

(* ------------------------------------------------------------------ *)
(* Scenario families: the protocols behind every experiment path      *)
(* ------------------------------------------------------------------ *)

(* The SLP-aware DAS protocol as Runner configures it, probed at source
   activation and every period after, up to Runner's deadline. *)
let das_run ?airtime ?faults ~topology ~mode ~link ~seed () =
  let n = Graph.n topology.Topology.graph in
  let source = topology.Topology.source and sink = topology.Topology.sink in
  let delta_ss = Topology.source_sink_distance topology in
  let params = Params.default in
  let config =
    Params.protocol_config ~data_sources:[ source ] params ~mode ~sink
      ~delta_ss ~seed
  in
  let period_length = Protocol.period_length config in
  let normal_start = Protocol.normal_start config in
  let until =
    min
      (normal_start
      +. Safety.safety_seconds ~factor:params.Params.safety_factor
           ~period_length ~delta_ss ())
      (Safety.upper_time_bound ~nodes:n ~source_period:params.Params.source_period)
  in
  ( run_of ?airtime ?faults ~probe:(normal_start, period_length) ~topology ~link
      ~seed ~until (),
    Protocol.program config )

let airtimes = [ ("", None); ("+airtime", Some 0.004) ]

let mode_name = function
  | Protocol.Protectionless -> "das"
  | Protocol.Slp -> "slp"

let test_das_family () =
  let topology = Topology.grid 5 in
  List.iter
    (fun (name, link) ->
      List.iter
        (fun mode ->
          let r, program = das_run ~topology ~mode ~link ~seed:7 () in
          let label = Printf.sprintf "das/%s/%s" name (mode_name mode) in
          let o = check_against_oracle label r ~program in
          Alcotest.(check bool) (label ^ ": protocol traffic") true
            (o.counters.Event.broadcasts > 0 && o.probes <> []))
        [ Protocol.Protectionless; Protocol.Slp ])
    links

let test_das_with_airtime () =
  (* Interference modelling exercises the jam check: the engine scans
     per-node audible logs, the oracle one global log. *)
  let topology = Topology.grid 5 in
  List.iter
    (fun (name, link) ->
      List.iter
        (fun mode ->
          let r, program =
            das_run ~airtime:0.004 ~topology ~mode ~link ~seed:11 ()
          in
          check_against_oracle
            (Printf.sprintf "das+airtime/%s/%s" name (mode_name mode))
            r ~program
          |> ignore)
        [ Protocol.Protectionless; Protocol.Slp ])
    links

let test_phantom_family () =
  let topology = Topology.grid 7 in
  let delta_ss = Topology.source_sink_distance topology in
  List.iter
    (fun (name, link) ->
      List.iter
        (fun walk_length ->
          let config =
            {
              (Phantom.default_config ~topology ~walk_length) with
              Phantom.run_seed = 3;
            }
          in
          let until =
            config.Phantom.start_time
            +. Safety.safety_seconds ~period_length:config.Phantom.source_period
                 ~delta_ss ()
          in
          List.iter
            (fun (aname, airtime) ->
              let r =
                run_of ?airtime
                  ~probe:(config.Phantom.start_time, config.Phantom.source_period)
                  ~topology ~link ~seed:3 ~until ()
              in
              check_against_oracle
                (Printf.sprintf "phantom/%s/walk%d%s" name walk_length aname)
                r ~program:(Phantom.program config)
              |> ignore)
            airtimes)
        [ 0; 4 ])
    links

let test_fake_family () =
  let topology = Topology.grid 5 in
  let delta_ss = Topology.source_sink_distance topology in
  let corner = Graph.n topology.Topology.graph - 1 in
  let config =
    {
      (Fake_source.default_config ~topology ~fake_sources:[ corner ]
         ~fake_rate_multiplier:1.0)
      with
      Fake_source.run_seed = 5;
    }
  in
  let until =
    config.Fake_source.start_time
    +. Safety.safety_seconds ~period_length:config.Fake_source.source_period
         ~delta_ss ()
  in
  List.iter
    (fun (name, link) ->
      List.iter
        (fun (aname, airtime) ->
          let r =
            run_of ?airtime
              ~probe:(config.Fake_source.start_time, config.Fake_source.source_period)
              ~topology ~link ~seed:5 ~until ()
          in
          check_against_oracle
            (Printf.sprintf "fake/%s%s" name aname)
            r ~program:(Fake_source.program config)
          |> ignore)
        airtimes)
    links

(* The full DAS protocol with crash-stops and a revival during the setup
   window, queued as harness callbacks exactly as the churn workload arms
   its fault plans. *)
let test_das_with_crashes () =
  let topology = Topology.grid 5 in
  let faults = [ (22.0, Fail 7); (47.0, Fail 18); (120.0, Revive 7) ] in
  List.iter
    (fun (name, link) ->
      let r, program =
        das_run ~faults ~topology ~mode:Protocol.Slp ~link ~seed:13 ()
      in
      let o = check_against_oracle ("das+crashes/" ^ name) r ~program in
      Alcotest.(check int) (name ^ ": two crashes") 2 o.counters.Event.node_failures;
      Alcotest.(check int) (name ^ ": one revival") 1 o.counters.Event.node_revivals)
    links

(* ------------------------------------------------------------------ *)
(* Engine internals: the wave flood on both sides of the batch cutover *)
(* ------------------------------------------------------------------ *)

let go_timer = Gcn.Timer.intern "equiv-go"

(* Repeating flooder: node 0 re-floods every second; nodes forward each
   wave once (state: latest wave heard and who delivered it).  It is
   broadcast-heavy, so lossy and SNR links draw plenty of randomness. *)
let wave_program ~self =
  let init ~self =
    ( (0, -1),
      if self = 0 then [ Gcn.Set_timer { timer = go_timer; after = 1.0 } ]
      else [] )
  in
  let go =
    Gcn.on_timeout "go" go_timer (fun ~self:_ (wave, from) ->
        Some
          ( (wave + 1, from),
            [
              Gcn.Broadcast (wave + 1);
              Gcn.Set_timer { timer = go_timer; after = 1.0 };
            ] ))
  in
  let forward =
    Gcn.on_receive "forward" (fun ~self:_ (wave, _) ~sender msg ->
        if msg > wave then Some ((msg, sender), [ Gcn.Broadcast msg ]) else None)
  in
  ignore self;
  { Gcn.init; actions = [ go; forward ]; spontaneous = [] }

(* Grid 6 (36 nodes) takes the engine's singleton-delivery path; grid 33
   (1089 nodes) lies above the documented 1024-node cutover and takes the
   batched one. *)
let wave_grids = [ ("grid6", Topology.grid 6); ("grid33", Topology.grid 33) ]

let test_cutover_sides () =
  Alcotest.(check (float 0.0)) "oracle latency = engine latency"
    Engine.propagation_delay Spec.propagation_delay;
  List.iter
    (fun (gname, topology) ->
      Alcotest.(check bool) (gname ^ " sits on its side of the cutover")
        (gname = "grid33")
        (Graph.n topology.Topology.graph > 1024))
    wave_grids

let wave_run ?airtime ?faults ?stop_after_deliveries ?(seed = 42) topology link
    =
  run_of ?airtime ?faults ?stop_after_deliveries ~probe:(0.5, 1.0) ~topology
    ~link ~seed ~until:8.0 ()

let test_engine_states () =
  test_cutover_sides ();
  List.iter
    (fun (gname, topology) ->
      List.iter
        (fun (name, link) ->
          check_against_oracle
            (Printf.sprintf "%s/%s" gname name)
            (wave_run topology link) ~program:wave_program
          |> ignore)
        links)
    wave_grids

let test_engine_states_airtime () =
  List.iter
    (fun (gname, topology) ->
      List.iter
        (fun (name, link) ->
          let o =
            check_against_oracle
              (Printf.sprintf "%s/%s+airtime" gname name)
              (wave_run ~airtime:0.003 topology link)
              ~program:wave_program
          in
          Alcotest.(check bool) (gname ^ "/" ^ name ^ ": receptions jammed")
            true
            (o.counters.Event.drops_collision > 0))
        links)
    wave_grids

(* Fault layer: mid-run crash-stops, a revival, link overrides and a loss
   burst, all queued at fixed times.  The fault layer's extra draws come
   from the link RNG per neighbour in adjacency order, so every observable
   — the typed failure/revival/link-change events included — must agree. *)
let wave_faults ~second =
  [
    (2.5, Fail 7);
    (3.0, Link_loss (0, 1, 0.6));
    (3.5, Fail second);
    (4.5, Revive 7);
    (5.0, Global_loss 0.3);
    (6.0, Global_loss 0.0);
    (6.5, Link_loss (0, 1, 0.0));
  ]

let test_fault_equivalence () =
  List.iter
    (fun (gname, topology) ->
      let second = Graph.n topology.Topology.graph / 2 in
      List.iter
        (fun (name, link) ->
          let o =
            check_against_oracle
              (Printf.sprintf "%s/%s+faults" gname name)
              (wave_run ~faults:(wave_faults ~second) topology link)
              ~program:wave_program
          in
          Alcotest.(check int) (gname ^ ": two failures") 2
            o.counters.Event.node_failures;
          Alcotest.(check int) (gname ^ ": one revival") 1
            o.counters.Event.node_revivals)
        links)
    wave_grids

(* Mid-run stop: a subscriber halts the run at a fixed delivery count, in
   the middle of a wave.  On the batched grid the stop lands inside a
   broadcast's batch, which the engine must cut short between recipients
   exactly where the oracle stops popping singleton arrivals. *)
let test_stop_equivalence () =
  List.iter
    (fun (gname, topology, k) ->
      List.iter
        (fun (name, link) ->
          let o =
            check_against_oracle
              (Printf.sprintf "%s/%s: stop@%d" gname name k)
              (wave_run ~stop_after_deliveries:k ~seed:9 topology link)
              ~program:wave_program
          in
          Alcotest.(check int) (gname ^ ": stopped at the delivery") k
            o.counters.Event.deliveries)
        links)
    [
      ("grid6", Topology.grid 6, 101);
      ("grid33", Topology.grid 33, 3001);
    ]

(* ------------------------------------------------------------------ *)
(* Coupled sharding: cells stay radio-coupled over cut edges and run  *)
(* in conservative lookahead windows.  The contract is byte-identity  *)
(* with the unsharded sequential engine (Shard.sequential_engine) at  *)
(* any cell count and any domain count.                               *)
(* ------------------------------------------------------------------ *)

(* Global observables of a run: merged counters plus per-node state,
   fire counts and broadcast count indexed by *global* node id. *)
type global_obs = {
  o_counters : Event.counters;
  o_states : (int * int) array;
  o_fired : (string * int) list array;
  o_bbn : int array;
}

let seq_obs ?(arm = fun _ -> ()) ~topology ~link ~until () =
  let e =
    Shard.sequential_engine ~topology ~link ~seed:42 ~program:wave_program ()
  in
  arm e;
  Engine.run_until e until;
  let n = Graph.n topology.Topology.graph in
  {
    o_counters = Engine.counters e;
    o_states = Array.init n (Engine.node_state e);
    o_fired = Array.init n (Engine.node_fire_counts e);
    o_bbn = Engine.broadcasts_by_node e;
  }

let coupled_obs ?(domains = 1) ?(arm = fun ~plan:_ ~cell:_ _ -> ())
    ~cells_x ~cells_y ~topology ~link ~until () =
  let plan = Shard.plan ~cells_x ~cells_y topology in
  let n = Graph.n topology.Topology.graph in
  let states = Array.make n (0, 0) in
  let fired = Array.make n [] in
  let bbn = Array.make n 0 in
  let _, merged =
    Shard.run_coupled ~domains
      ~arm:(fun ~cell e -> arm ~plan ~cell e)
      ~inspect:(fun ~cell e ->
        let local_bbn = Engine.broadcasts_by_node e in
        Array.iteri
          (fun i v ->
            states.(v) <- Engine.node_state e i;
            fired.(v) <- Engine.node_fire_counts e i;
            bbn.(v) <- local_bbn.(i))
          cell.Shard.nodes)
      plan ~link ~seed:42 ~program:wave_program ~until
  in
  { o_counters = merged; o_states = states; o_fired = fired; o_bbn = bbn }

let check_global ?(skip_link_changes = false) label expected actual =
  (if skip_link_changes then begin
     (* Per-cell fault application duplicates the Link_changed bookkeeping
        event (one per cell instead of one per deployment); the caller
        checks that counter separately. *)
     let scrub c = { c with Event.link_changes = 0 } in
     check_counters label (scrub expected.o_counters) (scrub actual.o_counters)
   end
   else check_counters label expected.o_counters actual.o_counters);
  Alcotest.(check (array int)) (label ^ ": broadcasts by node") expected.o_bbn
    actual.o_bbn;
  Array.iteri
    (fun v s ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: state of node %d" label v)
        s actual.o_states.(v);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s: fire counts of node %d" label v)
        expected.o_fired.(v) actual.o_fired.(v))
    expected.o_states

let coupled_topologies () =
  [ ("grid6", Topology.grid 6); ("ring24", Topology.ring 24) ]

(* Structural plan invariants: directed arcs double-count radio links, and
   the per-cell port rows sum back to the arc count. *)
let check_plan_accounting label (plan : Shard.plan) =
  Alcotest.(check int)
    (label ^ ": cut_arcs = 2 * cut_links")
    (2 * plan.Shard.cut_links) plan.Shard.cut_arcs;
  let port_rows =
    Array.fold_left
      (fun acc c ->
        acc + c.Shard.ports_off.(Array.length c.Shard.nodes))
      0 plan.Shard.cells
  in
  Alcotest.(check int) (label ^ ": port rows sum to cut_arcs") plan.Shard.cut_arcs
    port_rows

let test_coupled_vs_sequential () =
  List.iter
    (fun (tname, topology) ->
      let plan22 = Shard.plan ~cells_x:2 ~cells_y:2 topology in
      check_plan_accounting (tname ^ "/2x2") plan22;
      Alcotest.(check bool)
        (tname ^ "/2x2: cells cut radio links")
        true
        (plan22.Shard.cut_links > 0);
      Alcotest.(check bool)
        (tname ^ "/2x2: boundary nodes exist")
        true
        (Shard.boundary_nodes plan22 > 0);
      List.iter
        (fun (lname, link) ->
          let twin = seq_obs ~topology ~link ~until:8.0 () in
          List.iter
            (fun (cells_x, cells_y) ->
              let label =
                Printf.sprintf "%s/%s/%dx%d coupled = sequential" tname lname
                  cells_x cells_y
              in
              check_global label twin
                (coupled_obs ~domains:2 ~cells_x ~cells_y ~topology ~link
                   ~until:8.0 ()))
            [ (1, 1); (2, 2); (3, 1) ])
        links)
    (coupled_topologies ())

(* Fault plan shared by the twin and the coupled run: crash a boundary node
   mid-window (2.0005 sits between the wave-2 broadcast at 2.0 and its
   deliveries at 2.001), an intra-cell link override, a second crash, a
   revival, and a network-wide loss burst.  Under coupling, crashes,
   revivals and the override are armed in the owning cell with local ids;
   the global loss floor is mirrored into every cell. *)
let coupled_fault_times ~bnode =
  [
    (2.0005, `Fail bnode);
    (3.0, `Link_override (0, 1, 0.6));
    (3.5, `Fail 14);
    (4.5, `Revive bnode);
    (5.0, `Global_loss 0.3);
    (6.0, `Global_loss 0.0);
    (6.5, `Link_override (0, 1, 0.0));
  ]

(* First global node owning at least one boundary port. *)
let first_boundary_node (plan : Shard.plan) =
  let best = ref max_int in
  Array.iter
    (fun c ->
      Array.iteri
        (fun i v ->
          if c.Shard.ports_off.(i + 1) > c.Shard.ports_off.(i) && v < !best
          then best := v)
        c.Shard.nodes)
    plan.Shard.cells;
  !best

let test_coupled_faults () =
  let topology = Topology.grid 6 in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  let nc = Array.length plan.Shard.cells in
  let bnode = first_boundary_node plan in
  Alcotest.(check bool) "crash target is a boundary node" true
    (bnode < Graph.n topology.Topology.graph);
  (* The overridden link must not be a cut edge (unsupported under
     coupling): both endpoints live in the same cell. *)
  Alcotest.(check int) "override edge 0-1 is intra-cell"
    plan.Shard.cell_of_node.(0)
    plan.Shard.cell_of_node.(1);
  let faults = coupled_fault_times ~bnode in
  let arm_seq e =
    List.iter
      (fun (at, f) ->
        match f with
        | `Fail v -> Engine.schedule e ~at (fun e -> Engine.fail_node e v)
        | `Revive v -> Engine.schedule e ~at (fun e -> Engine.revive_node e v)
        | `Link_override (a, b, p) ->
          Engine.schedule e ~at (fun e -> Engine.set_link_loss e ~a ~b p)
        | `Global_loss p ->
          Engine.schedule e ~at (fun e -> Engine.set_global_loss e p))
      faults
  in
  let arm_cell ~plan ~cell e =
    let mine v = plan.Shard.cell_of_node.(v) = cell.Shard.id in
    let local v = plan.Shard.local_index.(v) in
    List.iter
      (fun (at, f) ->
        match f with
        | `Fail v when mine v ->
          Engine.schedule e ~at (fun e -> Engine.fail_node e (local v))
        | `Revive v when mine v ->
          Engine.schedule e ~at (fun e -> Engine.revive_node e (local v))
        | `Link_override (a, b, p) when mine a && mine b ->
          Engine.schedule e ~at (fun e ->
              Engine.set_link_loss e ~a:(local a) ~b:(local b) p)
        | `Global_loss p ->
          Engine.schedule e ~at (fun e -> Engine.set_global_loss e p)
        | `Fail _ | `Revive _ | `Link_override _ -> ())
      faults
  in
  let global_changes =
    List.length
      (List.filter (fun (_, f) -> match f with `Global_loss _ -> true | _ -> false)
         faults)
  in
  List.iter
    (fun (lname, link) ->
      let label = "faults/" ^ lname in
      let twin = seq_obs ~arm:arm_seq ~topology ~link ~until:8.0 () in
      let coupled =
        coupled_obs ~domains:2 ~arm:arm_cell ~cells_x:2 ~cells_y:2 ~topology
          ~link ~until:8.0 ()
      in
      check_global ~skip_link_changes:true label twin coupled;
      (* Every cell logs the mirrored global-loss changes; everything else
         is armed exactly once. *)
      Alcotest.(check int) (label ^ ": link changes")
        (twin.o_counters.Event.link_changes + ((nc - 1) * global_changes))
        coupled.o_counters.Event.link_changes)
    links

(* The exp-layer recorder must reconstruct the sequential engine's bus
   exactly: record every event in every cell with its processing key, merge,
   and compare against a tap on the sequential twin. *)
let test_coupled_event_stream () =
  let topology = Topology.grid 6 in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  List.iter
    (fun (lname, link) ->
      let twin =
        Shard.sequential_engine ~topology ~link ~seed:42 ~program:wave_program
          ()
      in
      let twin_stream = Coupled.tap twin in
      Engine.run_until twin 8.0;
      let recorder = Coupled.recorder () in
      let _ =
        Shard.run_coupled ~domains:2 ~monitor:(Coupled.monitor recorder) plan
          ~link ~seed:42 ~program:wave_program ~until:8.0
      in
      let merged = Coupled.events recorder in
      let expected = twin_stream () in
      Alcotest.(check int)
        (lname ^ ": stream lengths")
        (Array.length expected) (Array.length merged);
      Alcotest.(check bool)
        (lname ^ ": merged stream = sequential bus")
        true
        (merged = expected))
    links

(* The pure hunter fold over a coupled run's merged stream must reach the
   same verdict as the live local hunter subscribed on the sequential
   twin (which stops the engine at capture — the fold instead ignores the
   stream's tail). *)
let test_coupled_hunter () =
  let topology = Topology.grid 6 in
  let n = Graph.n topology.Topology.graph in
  let start = n - 1 and source = 0 in
  let message_id msg = Some msg in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  List.iter
    (fun (lname, link) ->
      let twin =
        Shard.sequential_engine ~topology ~link ~seed:42 ~program:wave_program
          ()
      in
      let live =
        Hunter.attach Slpdas_attack.Model.Local ~start ~source ~seed:0
          ~message_id twin
      in
      Engine.run_until twin 14.0;
      let folded, _ =
        Coupled.capture ~domains:2 plan ~link ~seed:42 ~program:wave_program
          ~until:14.0 ~start ~source ~message_id ()
      in
      Alcotest.(check int) (lname ^ ": hunter location")
        (Hunter.location live)
        folded.Coupled.Hunter.location;
      Alcotest.(check (list int)) (lname ^ ": hunter path")
        (Hunter.path live) folded.Coupled.Hunter.path;
      Alcotest.(check (option (float 0.0)))
        (lname ^ ": capture time")
        (Hunter.capture_time live)
        folded.Coupled.Hunter.capture_time;
      (* The wave floods from the source every second, so the hunter must
         actually converge — guard against a vacuous pass. *)
      Alcotest.(check bool) (lname ^ ": hunter captures") true
        (folded.Coupled.Hunter.capture_time <> None))
    links

let test_coupled_domain_invariance () =
  let topology = Topology.grid 7 in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  List.iter
    (fun (lname, link) ->
      let run domains =
        let per_cell, merged =
          Shard.run_coupled ~domains plan ~link ~seed:42 ~program:wave_program
            ~until:6.0
        in
        String.concat "\n"
          (List.map Event.to_json (merged :: Array.to_list per_cell))
      in
      let j1 = run 1 in
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "%s: coupled JSON, %d domains = 1 domain" lname
               domains)
            j1 (run domains))
        [ 2; 4 ])
    links

(* Acceptance-scale check: on the 101x101 grid (10201 nodes), a coupled run
   with 16 cells matches the unsharded sequential engine byte for byte —
   counters JSON and per-node broadcast counts — for every link model, at
   one and two domains. *)
let test_coupled_101 () =
  let topology = Topology.grid 101 in
  let until = 2.0 in
  List.iter
    (fun (lname, link) ->
      let twin =
        Shard.sequential_engine ~topology ~link ~seed:42 ~program:wave_program
          ()
      in
      Engine.run_until twin until;
      let twin_json = Event.to_json (Engine.counters twin) in
      let twin_bbn = Engine.broadcasts_by_node twin in
      let plan = Shard.plan ~cells_x:4 ~cells_y:4 topology in
      List.iter
        (fun domains ->
          let n = Graph.n topology.Topology.graph in
          let bbn = Array.make n 0 in
          let _, merged =
            Shard.run_coupled ~domains plan ~link ~seed:42
              ~program:wave_program ~until
              ~inspect:(fun ~cell e ->
                let local = Engine.broadcasts_by_node e in
                Array.iteri (fun i v -> bbn.(v) <- local.(i)) cell.Shard.nodes)
          in
          let label = Printf.sprintf "101x101/%s/domains=%d" lname domains in
          Alcotest.(check string)
            (label ^ ": counters JSON") twin_json (Event.to_json merged);
          Alcotest.(check (array int))
            (label ^ ": broadcasts by node") twin_bbn bbn)
        [ 1; 2 ])
    links

(* Property: whatever the cell decomposition and domain count, the coupled
   run reproduces the sequential twin byte for byte. *)
let prop_coupled_cell_count_invariance =
  let topology = Topology.grid 5 in
  let link = Link_model.Lossy 0.25 in
  let twin = seq_obs ~topology ~link ~until:5.0 () in
  let twin_json = Event.to_json twin.o_counters in
  QCheck.Test.make ~count:12
    ~name:"coupled run is invariant in (cells_x, cells_y, domains)"
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 1 3))
    (fun (cells_x, cells_y, domains) ->
      (* QCheck's int shrinker can step outside the generator's range;
         clamp so shrinking a genuine failure stays well-formed. *)
      let cells_x = max 1 cells_x
      and cells_y = max 1 cells_y
      and domains = max 1 domains in
      let obs =
        coupled_obs ~domains ~cells_x ~cells_y ~topology ~link ~until:5.0 ()
      in
      Event.to_json obs.o_counters = twin_json
      && obs.o_states = twin.o_states
      && obs.o_fired = twin.o_fired
      && obs.o_bbn = twin.o_bbn)

let () =
  Alcotest.run "engine-equivalence"
    [
      ( "scenario families",
        [
          Alcotest.test_case "das: all links x modes" `Quick test_das_family;
          Alcotest.test_case "das with airtime" `Quick test_das_with_airtime;
          Alcotest.test_case "phantom: all links x walks" `Quick
            test_phantom_family;
          Alcotest.test_case "fake sources: all links" `Quick test_fake_family;
        ] );
      ( "engine internals",
        [
          Alcotest.test_case "states + traces, all links" `Quick
            test_engine_states;
          Alcotest.test_case "states + traces with airtime" `Quick
            test_engine_states_airtime;
          Alcotest.test_case "crashes, revival, link overrides" `Quick
            test_fault_equivalence;
          Alcotest.test_case "das with mid-setup crashes" `Quick
            test_das_with_crashes;
          Alcotest.test_case "mid-run stop" `Quick test_stop_equivalence;
        ] );
      ( "coupled sharding",
        [
          Alcotest.test_case "coupled = sequential, links x topologies" `Quick
            test_coupled_vs_sequential;
          Alcotest.test_case "boundary crash + faults mid-window" `Quick
            test_coupled_faults;
          Alcotest.test_case "merged event stream = sequential bus" `Quick
            test_coupled_event_stream;
          Alcotest.test_case "offline hunter = live hunter" `Quick
            test_coupled_hunter;
          Alcotest.test_case "coupled domain-count invariance" `Quick
            test_coupled_domain_invariance;
          Alcotest.test_case "101x101 acceptance, links x domains" `Slow
            test_coupled_101;
          QCheck_alcotest.to_alcotest prop_coupled_cell_count_invariance;
        ] );
    ]
