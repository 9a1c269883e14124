(* Large-grid smoke (slow tier): the 101x101 deployment — 10,201 nodes,
   well past every paper-scale grid — must construct through the CSR bulk
   path, admit the paper's DAS construction (complete and strong per
   Das_check), and the sharded engine must reproduce the unsharded run
   byte-for-byte: a single-cell plan equals the plain engine, and a
   multi-cell plan's observables are invariant under the domain count.
   This is the bounded stand-in for the 1000x1000 runs recorded in
   bench_results/BENCH_scale.json. *)

module Graph = Slpdas_wsn.Graph
module Topology = Slpdas_wsn.Topology
module Engine = Slpdas_sim.Engine
module Event = Slpdas_sim.Event
module Shard = Slpdas_sim.Shard
module Rng = Slpdas_util.Rng

let dim = 101
let topology = lazy (Topology.grid dim)

(* The bench's wave workload: node 0 (per engine) floods a counter every
   simulated second; everyone else forwards fresher waves. *)
let wave_program ~self =
  let go_timer = Slpdas_gcn.Timer.intern "scale-test-wave" in
  let init ~self =
    ( 0,
      if self = 0 then
        [ Slpdas_gcn.Set_timer { timer = go_timer; after = 1.0 } ]
      else [] )
  in
  let go =
    Slpdas_gcn.on_timeout "go" go_timer (fun ~self:_ wave ->
        Some
          ( wave + 1,
            [
              Slpdas_gcn.Broadcast (wave + 1);
              Slpdas_gcn.Set_timer { timer = go_timer; after = 1.0 };
            ] ))
  in
  let forward =
    Slpdas_gcn.on_receive "forward" (fun ~self:_ wave ~sender:_ msg ->
        if msg > wave then Some (msg, [ Slpdas_gcn.Broadcast msg ]) else None)
  in
  ignore self;
  { Slpdas_gcn.init; actions = [ go; forward ]; spontaneous = [] }

let test_das_build () =
  let topology = Lazy.force topology in
  let g = topology.Topology.graph in
  Alcotest.(check int) "nodes" (dim * dim) (Graph.n g);
  Alcotest.(check int) "edges" (2 * dim * (dim - 1)) (Graph.num_edges g);
  let das = Slpdas_core.Das_build.build g ~sink:topology.Topology.sink in
  let schedule = das.Slpdas_core.Das_build.schedule in
  Alcotest.(check bool)
    "schedule complete" true
    (Slpdas_core.Schedule.complete schedule);
  Alcotest.(check int)
    "strong DAS (Def. 2): no violations" 0
    (List.length (Slpdas_core.Das_check.check_strong g schedule))

let test_sharded_matches_unsharded () =
  let topology = Lazy.force topology in
  let plan = Shard.plan ~cells_x:1 ~cells_y:1 topology in
  Alcotest.(check int) "one cell" 1 (Array.length plan.Shard.cells);
  let _, merged =
    Shard.run plan ~link:Slpdas_sim.Link_model.Ideal ~seed:5
      ~program:(fun ~cell:_ ~self -> wave_program ~self)
      ~until:3.0
  in
  (* The unsharded twin consumes the stream the plan hands its only cell:
     the first split of the master seed. *)
  let rng = Rng.split (Rng.create 5) in
  let e =
    Engine.create ~topology ~link:Slpdas_sim.Link_model.Ideal ~rng
      ~program:wave_program ()
  in
  Engine.run_until e 3.0;
  Alcotest.(check string)
    "sharded counters = unsharded counters, byte for byte"
    (Event.to_json (Engine.counters e))
    (Event.to_json merged)

let test_domain_invariance () =
  let topology = Lazy.force topology in
  let plan = Shard.plan ~cells_x:4 ~cells_y:4 topology in
  Alcotest.(check int) "16 cells" 16 (Array.length plan.Shard.cells);
  Alcotest.(check bool) "cut edges exist" true (plan.Shard.cut_edges > 0);
  let observables domains =
    let per_cell, merged =
      Shard.run ~domains plan ~link:Slpdas_sim.Link_model.Ideal ~seed:5
        ~program:(fun ~cell:_ ~self -> wave_program ~self)
        ~until:3.0
    in
    Shard.counters_json per_cell merged
  in
  Alcotest.(check string)
    "observables byte-identical for 1 and 2 domains" (observables 1)
    (observables 2)

let () =
  Alcotest.run "scale"
    [
      ( "101x101 grid",
        [
          Alcotest.test_case "DAS build passes Das_check" `Slow test_das_build;
          Alcotest.test_case "single-cell shard = unsharded" `Slow
            test_sharded_matches_unsharded;
          Alcotest.test_case "domain-count invariance" `Slow
            test_domain_invariance;
        ] );
    ]
