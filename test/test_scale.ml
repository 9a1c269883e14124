(* Large-grid smoke (slow tier): the 101x101 deployment — 10,201 nodes,
   well past every paper-scale grid — must construct through the CSR bulk
   path and admit the paper's DAS construction (complete and strong per
   Das_check).  This is the bounded stand-in for the 1000x1000 runs
   recorded in bench_results/BENCH_scale.json; the coupled sharded engine
   at this size is checked by test_engine_equiv's "101x101 acceptance". *)

module Graph = Slpdas_wsn.Graph
module Topology = Slpdas_wsn.Topology

let dim = 101
let topology = lazy (Topology.grid dim)

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

let () =
  Alcotest.run "scale"
    [
      ( "101x101 grid",
        [
          Alcotest.test_case "DAS build passes Das_check" `Slow test_das_build;
        ] );
    ]
