(* Tests for the experiment harness (Slpdas_exp). *)

module Topology = Slpdas_wsn.Topology
module Protocol = Slpdas_core.Protocol
module Attacker = Slpdas_core.Attacker
module Params = Slpdas_exp.Params
module Capture = Slpdas_exp.Capture
module Runner = Slpdas_exp.Runner

let topo11 = Topology.grid 11

(* ------------------------------------------------------------------ *)
(* Params (Table I)                                                   *)
(* ------------------------------------------------------------------ *)

let test_params_table1_values () =
  let p = Params.default in
  Alcotest.(check (float 1e-9)) "Psrc" 5.5 p.Params.source_period;
  Alcotest.(check (float 1e-9)) "Pslot" 0.05 p.Params.slot_period;
  Alcotest.(check (float 1e-9)) "Pdiss" 0.5 p.Params.dissemination_period;
  Alcotest.(check int) "slots" 100 p.Params.slots;
  Alcotest.(check int) "MSP" 80 p.Params.minimum_setup_periods;
  Alcotest.(check int) "NDP" 4 p.Params.neighbour_discovery_periods;
  Alcotest.(check int) "DT" 5 p.Params.dissemination_timeout;
  Alcotest.(check (float 1e-9)) "period length" 5.0 (Params.period_length p)

let test_params_change_length () =
  let p = Params.default in
  Alcotest.(check int) "CL = dss - SD" 7 (Params.change_length_for p ~delta_ss:10);
  Alcotest.(check int) "CL floor" 1 (Params.change_length_for p ~delta_ss:2);
  let explicit = { p with Params.change_length = Some 4 } in
  Alcotest.(check int) "explicit wins" 4
    (Params.change_length_for explicit ~delta_ss:10)

let test_params_with_search_distance () =
  let p = Params.with_search_distance 5 Params.default in
  Alcotest.(check int) "sd" 5 p.Params.search_distance

let test_params_protocol_config () =
  let c =
    Params.protocol_config Params.default ~mode:Protocol.Slp ~sink:60
      ~delta_ss:10 ~seed:7
  in
  Alcotest.(check int) "sink" 60 c.Protocol.sink;
  Alcotest.(check int) "CL" 7 c.Protocol.change_length;
  Alcotest.(check int) "seed" 7 c.Protocol.run_seed

let test_params_table_rows () =
  let rows = Params.table_rows Params.default in
  Alcotest.(check int) "nine Table I rows" 9 (List.length rows);
  let symbols = List.map (fun (_, s, _, _) -> s) rows in
  Alcotest.(check bool) "has SD" true (List.mem "SD" symbols);
  Alcotest.(check bool) "has MSP" true (List.mem "MSP" symbols)

(* ------------------------------------------------------------------ *)
(* Capture summaries                                                  *)
(* ------------------------------------------------------------------ *)

let test_seeds_canonical () =
  Alcotest.(check (list int)) "sequence" [ 10; 11; 12 ]
    (Capture.seeds ~base:10 ~runs:3)

let centralized_summary ?(mode = Protocol.Protectionless) ?(runs = 40) () =
  Capture.centralized ~topology:topo11 ~mode ~params:Params.default
    ~attacker:(fun ~start -> Attacker.canonical ~start)
    ~seeds:(Capture.seeds ~base:100 ~runs) ()

let test_centralized_summary_consistent () =
  let s = centralized_summary () in
  Alcotest.(check int) "runs" 40 s.Capture.runs;
  Alcotest.(check int) "details arity" 40 (List.length s.Capture.details);
  Alcotest.(check int) "captures = detail count"
    (List.length (List.filter (fun d -> d.Capture.captured) s.Capture.details))
    s.Capture.captures;
  let lo, hi = s.Capture.ci95 in
  Alcotest.(check bool) "CI brackets ratio" true
    (lo <= s.Capture.ratio && s.Capture.ratio <= hi);
  Alcotest.(check (float 1e-9)) "percent" (100.0 *. s.Capture.ratio)
    (Capture.ratio_percent s)

let test_centralized_protectionless_strong () =
  let s = centralized_summary () in
  Alcotest.(check int) "all runs strong DAS" s.Capture.runs s.Capture.strong_das_runs

let test_centralized_reproducible () =
  let a = centralized_summary () and b = centralized_summary () in
  Alcotest.(check int) "same captures" a.Capture.captures b.Capture.captures

let test_centralized_capture_periods_bounded () =
  let topo = topo11 in
  let delta_ss = Topology.source_sink_distance topo in
  let sp = Slpdas_core.Safety.safety_periods ~delta_ss () in
  let s = centralized_summary ~runs:60 () in
  List.iter
    (fun d ->
      match d.Capture.capture_periods with
      | Some p ->
        Alcotest.(check bool) "within safety period" true (p <= sp);
        Alcotest.(check bool) "at least dss" true (p >= delta_ss)
      | None -> Alcotest.(check bool) "uncaptured" false d.Capture.captured)
    s.Capture.details

let test_centralized_slp_reduces_capture () =
  (* The headline claim at the robust gap setting; gap=1 is benchmarked, not
     asserted, because its reduction is weaker (see EXPERIMENTS.md). *)
  let params = { Params.default with Params.refine_gap = 2 } in
  let runs = 80 in
  let summary mode =
    Capture.centralized ~topology:topo11 ~mode ~params
      ~attacker:(fun ~start -> Attacker.canonical ~start)
      ~seeds:(Capture.seeds ~base:0 ~runs) ()
  in
  let prot = summary Protocol.Protectionless in
  let slp = summary Protocol.Slp in
  Alcotest.(check bool)
    (Printf.sprintf "slp %d <= half of prot %d" slp.Capture.captures
       prot.Capture.captures)
    true
    (2 * slp.Capture.captures <= prot.Capture.captures)

(* ------------------------------------------------------------------ *)
(* Runner (full DES)                                                  *)
(* ------------------------------------------------------------------ *)

let small_topo = Topology.grid 5

let test_runner_deterministic () =
  let run () =
    Runner.run (Runner.default_config ~topology:small_topo
                  ~mode:Protocol.Protectionless ~seed:11)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "captured equal" a.Runner.captured b.Runner.captured;
  Alcotest.(check int) "messages equal" a.Runner.total_messages b.Runner.total_messages;
  Alcotest.(check (list int)) "paths equal" a.Runner.attacker_path b.Runner.attacker_path

(* The batch API must give exactly the sequential answers whatever the pool
   size: every run is seed-parameterised and results come back in config
   order. *)
let test_run_many_domain_invariance () =
  let configs =
    List.map
      (fun seed ->
        Runner.default_config ~topology:small_topo
          ~mode:Protocol.Protectionless ~seed)
      [ 0; 1; 2; 3 ]
  in
  let seq = Runner.run_many ~domains:1 configs in
  let par = Runner.run_many ~domains:3 configs in
  Alcotest.(check int) "same run count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      Alcotest.(check bool) "captured" a.Runner.captured b.Runner.captured;
      Alcotest.(check (option (float 1e-9)))
        "capture time" a.Runner.capture_seconds b.Runner.capture_seconds;
      Alcotest.(check int) "messages" a.Runner.total_messages
        b.Runner.total_messages;
      Alcotest.(check (list int)) "path" a.Runner.attacker_path
        b.Runner.attacker_path;
      Alcotest.(check (float 1e-9))
        "delivery" a.Runner.delivery_ratio b.Runner.delivery_ratio)
    seq par

let test_runner_schedule_valid () =
  let r =
    Runner.run (Runner.default_config ~topology:small_topo
                  ~mode:Protocol.Protectionless ~seed:3)
  in
  Alcotest.(check bool) "complete" true r.Runner.complete;
  Alcotest.(check bool) "strong" true r.Runner.strong_das;
  Alcotest.(check bool) "weak implied" true r.Runner.weak_das;
  Alcotest.(check int) "dss" 4 r.Runner.delta_ss;
  Alcotest.(check (float 1e-9)) "safety seconds = 1.5 * 5s * (dss+1)" 37.5
    r.Runner.safety_seconds

let test_runner_attacker_starts_at_sink () =
  let r =
    Runner.run (Runner.default_config ~topology:small_topo
                  ~mode:Protocol.Protectionless ~seed:3)
  in
  Alcotest.(check int) "path starts at sink" small_topo.Topology.sink
    (List.hd r.Runner.attacker_path)

let test_runner_attacker_path_is_walk () =
  let g = small_topo.Topology.graph in
  let r =
    Runner.run (Runner.default_config ~topology:small_topo
                  ~mode:Protocol.Protectionless ~seed:5)
  in
  let rec ok = function
    | a :: (b :: _ as rest) -> Slpdas_wsn.Graph.mem_edge g a b && ok rest
    | _ -> true
  in
  Alcotest.(check bool) "walk" true (ok r.Runner.attacker_path)

let test_runner_capture_consistency () =
  (* captured implies a capture time within the safety period, and the
     attacker's final position is the source. *)
  for seed = 0 to 7 do
    let r =
      Runner.run (Runner.default_config ~topology:small_topo
                    ~mode:Protocol.Protectionless ~seed)
    in
    match (r.Runner.captured, r.Runner.capture_seconds) with
    | true, Some t ->
      Alcotest.(check bool) "within safety" true (t <= r.Runner.safety_seconds);
      Alcotest.(check int) "final = source" small_topo.Topology.source
        r.Runner.attacker_final
    | true, None -> Alcotest.fail "captured without a capture time"
    | false, Some t ->
      Alcotest.(check bool) "late capture only" true (t > r.Runner.safety_seconds)
    | false, None -> ()
  done

let test_runner_setup_messages_less_than_total () =
  let r =
    Runner.run (Runner.default_config ~topology:small_topo
                  ~mode:Protocol.Protectionless ~seed:2)
  in
  Alcotest.(check bool) "setup < total" true
    (r.Runner.setup_messages < r.Runner.total_messages);
  Alcotest.(check bool) "setup positive" true (r.Runner.setup_messages > 0)

let test_runner_agrees_with_verifier () =
  (* The operational attacker in the DES and Algorithm 1 on the extracted
     schedule must agree on the outcome. *)
  let topo = Topology.grid 7 in
  let delta_ss = Topology.source_sink_distance topo in
  let sp = Slpdas_core.Safety.safety_periods ~delta_ss () in
  for seed = 0 to 7 do
    let r =
      Runner.run (Runner.default_config ~topology:topo
                    ~mode:Protocol.Protectionless ~seed)
    in
    let verdict =
      Slpdas_core.Verifier.verify topo.Topology.graph r.Runner.schedule
        ~attacker:(Attacker.canonical ~start:topo.Topology.sink)
        ~safety_period:sp ~source:topo.Topology.source
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d agreement" seed)
      r.Runner.captured
      (verdict <> Slpdas_core.Verifier.Safe)
  done

let test_simulated_summary_runs () =
  let s =
    Capture.simulated ~topology:small_topo ~mode:Protocol.Protectionless
      ~params:Params.default ~link:Slpdas_sim.Link_model.Ideal
      ~attacker:(fun ~start -> Attacker.canonical ~start)
      ~seeds:(Capture.seeds ~base:0 ~runs:4) ()
  in
  Alcotest.(check int) "runs" 4 s.Capture.runs;
  Alcotest.(check bool) "setup messages recorded" true
    (s.Capture.mean_setup_messages > 0.0)

(* SLP refinement must leave a weak DAS (Def. 3) on irregular
   deployments too.  Seed 9034 on this 441-node unit disk used to leave a
   pinned decoy with every neighbour transmitting earlier. *)
let slp_weak_das ~topology ~seeds =
  let s =
    Capture.centralized ~topology ~mode:Protocol.Slp ~params:Params.default
      ~attacker:(fun ~start -> Attacker.canonical ~start)
      ~seeds ()
  in
  List.for_all (fun d -> d.Capture.weak_das) s.Capture.details

let test_centralized_slp_weak_on_unit_disk () =
  match
    Topology.random_unit_disk (Slpdas_util.Rng.create 71322) ~n:441
      ~side:100.0 ~range:8.4 ~max_attempts:1000
  with
  | None -> Alcotest.fail "no connected placement"
  | Some topology ->
    Alcotest.(check bool) "seed 9034 refines to a weak DAS" true
      (slp_weak_das ~topology ~seeds:[ 9034 ])

let prop_centralized_slp_weak_on_unit_disk =
  QCheck.Test.make ~count:60 ~name:"SLP refinement keeps a weak DAS on unit disks"
    QCheck.(pair (int_bound 100_000) (int_range 40 160))
    (fun (seed, n) ->
      let side = 5.0 *. sqrt (float_of_int n) in
      match
        Topology.random_unit_disk (Slpdas_util.Rng.create seed) ~n ~side
          ~range:8.4 ~max_attempts:200
      with
      | None -> QCheck.assume_fail ()
      | Some topology ->
        slp_weak_das ~topology ~seeds:[ seed; seed + 1; seed + 2 ])

let () =
  Alcotest.run "exp"
    [
      ( "params",
        [
          Alcotest.test_case "Table I values" `Quick test_params_table1_values;
          Alcotest.test_case "change length" `Quick test_params_change_length;
          Alcotest.test_case "with search distance" `Quick
            test_params_with_search_distance;
          Alcotest.test_case "protocol config" `Quick test_params_protocol_config;
          Alcotest.test_case "table rows" `Quick test_params_table_rows;
        ] );
      ( "capture",
        [
          Alcotest.test_case "seed list" `Quick test_seeds_canonical;
          Alcotest.test_case "summary consistent" `Quick
            test_centralized_summary_consistent;
          Alcotest.test_case "protectionless strong" `Quick
            test_centralized_protectionless_strong;
          Alcotest.test_case "reproducible" `Quick test_centralized_reproducible;
          Alcotest.test_case "capture periods bounded" `Quick
            test_centralized_capture_periods_bounded;
          Alcotest.test_case "slp halves captures (gap=2)" `Slow
            test_centralized_slp_reduces_capture;
          Alcotest.test_case "slp weak DAS on a unit disk" `Quick
            test_centralized_slp_weak_on_unit_disk;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20170611 |])
            prop_centralized_slp_weak_on_unit_disk;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Slow test_runner_deterministic;
          Alcotest.test_case "run_many 1 vs N domains" `Slow
            test_run_many_domain_invariance;
          Alcotest.test_case "schedule valid" `Quick test_runner_schedule_valid;
          Alcotest.test_case "attacker starts at sink" `Quick
            test_runner_attacker_starts_at_sink;
          Alcotest.test_case "path is a walk" `Quick test_runner_attacker_path_is_walk;
          Alcotest.test_case "capture consistency" `Slow test_runner_capture_consistency;
          Alcotest.test_case "setup vs total messages" `Quick
            test_runner_setup_messages_less_than_total;
          Alcotest.test_case "agrees with verifier" `Slow test_runner_agrees_with_verifier;
          Alcotest.test_case "simulated summary" `Slow test_simulated_summary_runs;
        ] );
    ]
