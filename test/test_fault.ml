(* Tests for the lib/fault subsystem: the fault-plan DSL and its
   deterministic compilation, alive-restricted schedule checking, the
   resilience counter algebra and the churn workload's repair metrics —
   including a replay on the spec oracle engine and domain-count
   invariance. *)

module Topology = Slpdas_wsn.Topology
module Graph = Slpdas_wsn.Graph
module Rng = Slpdas_util.Rng
module Gcn = Slpdas_gcn
module Event = Slpdas_sim.Event
module Link_model = Slpdas_sim.Link_model
module Messages = Slpdas_core.Messages
module Safety = Slpdas_core.Safety
module Schedule = Slpdas_core.Schedule
module Das_check = Slpdas_core.Das_check
module Protocol = Slpdas_core.Protocol
module Params = Slpdas_exp.Params
module Fault_plan = Slpdas_fault.Fault_plan
module Resilience = Slpdas_fault.Resilience
module Churn = Slpdas_fault.Churn
module Spec = Engine_spec

(* ------------------------------------------------------------------ *)
(* Plan DSL                                                           *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S failed to parse: %s" s e

let test_plan_round_trip () =
  let text =
    "crash@200:k=3;revive@300:all;linkdown@150:12-13;degrade@160:4-5,0.4;restore@250:12-13;burst@410:0.3,25;crash@210:node=7;crash@220:region=0,0,9,9"
  in
  let plan = parse_ok text in
  Alcotest.(check int) "entries" 8 (List.length plan);
  let printed = Fault_plan.to_string plan in
  let plan2 = parse_ok printed in
  Alcotest.(check string) "round trip is stable" printed
    (Fault_plan.to_string plan2)

let test_plan_errors () =
  List.iter
    (fun s ->
      match Fault_plan.of_string s with
      | Ok _ -> Alcotest.failf "plan %S should not parse" s
      | Error _ -> ())
    [
      "crash@200:all";
      "revive@10:k=2";
      "frobnicate@1:node=2";
      "crash@x:node=1";
      "burst@5:0.5";
      "crash@5";
      "linkdown@5:1+2";
      "crash@5:planet=9";
    ]

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)
(* ------------------------------------------------------------------ *)

let failed_nodes ops =
  List.filter_map
    (fun (o : Fault_plan.resolved) ->
      match o.Fault_plan.op with Fault_plan.Fail v -> Some v | _ -> None)
    ops

let restarted_nodes ops =
  List.filter_map
    (fun (o : Fault_plan.resolved) ->
      match o.Fault_plan.op with Fault_plan.Restart v -> Some v | _ -> None)
    ops

let test_compile_deterministic () =
  let topology = Topology.grid 7 in
  let plan = parse_ok "crash@200:k=3;revive@260:all" in
  let compile seed =
    Fault_plan.compile ~protect:[ topology.Topology.source ] ~topology ~seed
      plan
  in
  let ops = compile 42 in
  Alcotest.(check bool) "same seed, same ops" true (ops = compile 42);
  let crashed = failed_nodes ops in
  Alcotest.(check int) "three crashes" 3 (List.length crashed);
  Alcotest.(check int) "distinct victims" 3
    (List.length (List.sort_uniq compare crashed));
  List.iter
    (fun v ->
      Alcotest.(check bool) "victim in range" true
        (v >= 0 && v < Graph.n topology.Topology.graph);
      Alcotest.(check bool) "sink protected" true (v <> topology.Topology.sink);
      Alcotest.(check bool) "source protected" true
        (v <> topology.Topology.source))
    crashed;
  Alcotest.(check (list int)) "revive@all mirrors the crash set" crashed
    (restarted_nodes ops);
  (* compiled operations are time-sorted *)
  let times = List.map (fun (o : Fault_plan.resolved) -> o.Fault_plan.time) ops in
  Alcotest.(check (list (float 0.0))) "times sorted" (List.sort compare times)
    times

let test_compile_region () =
  (* Grid 5 at 4.5 m spacing: the box [0,5]x[0,5] holds rows/cols 0-1,
     i.e. nodes 0, 1, 5, 6 (none is the sink, which sits at the centre). *)
  let topology = Topology.grid 5 in
  let plan = parse_ok "crash@10:region=0,0,5,5" in
  let ops = Fault_plan.compile ~topology ~seed:1 plan in
  Alcotest.(check (list int)) "region victims" [ 0; 1; 5; 6 ]
    (List.sort compare (failed_nodes ops))

let test_compile_burst_and_links () =
  let topology = Topology.grid 5 in
  let plan = parse_ok "burst@100:0.5,20;linkdown@50:1-2;restore@90:1-2" in
  let ops = Fault_plan.compile ~topology ~seed:1 plan in
  Alcotest.(check int) "four operations" 4 (List.length ops);
  match ops with
  | [
   { Fault_plan.time = t1; op = Fault_plan.Set_link { a = 1; b = 2; loss = l1 } };
   { Fault_plan.time = t2; op = Fault_plan.Set_link { a = 1; b = 2; loss = l2 } };
   { Fault_plan.time = t3; op = Fault_plan.Set_global g1 };
   { Fault_plan.time = t4; op = Fault_plan.Set_global g2 };
  ] ->
    Alcotest.(check (float 0.0)) "linkdown time" 50.0 t1;
    Alcotest.(check (float 0.0)) "linkdown is loss 1" 1.0 l1;
    Alcotest.(check (float 0.0)) "restore time" 90.0 t2;
    Alcotest.(check (float 0.0)) "restore is loss 0" 0.0 l2;
    Alcotest.(check (float 0.0)) "burst start" 100.0 t3;
    Alcotest.(check (float 0.0)) "burst loss" 0.5 g1;
    Alcotest.(check (float 0.0)) "burst end" 120.0 t4;
    Alcotest.(check (float 0.0)) "burst clears" 0.0 g2
  | _ -> Alcotest.fail "unexpected operation shapes"

let test_compile_rejects () =
  let topology = Topology.grid 5 in
  List.iter
    (fun text ->
      let plan = parse_ok text in
      Alcotest.check_raises ("compile rejects " ^ text)
        (Invalid_argument
           (match text with
           | "crash@1:node=12" -> "Fault_plan.compile: cannot crash the sink"
           | _ -> "Fault_plan.compile: crash node 99 out of range"))
        (fun () -> ignore (Fault_plan.compile ~topology ~seed:1 plan)))
    [ "crash@1:node=12" (* grid-5 sink *); "crash@1:node=99" ]

(* The chaos CLI checks a user's plan with [validate] before any run, so a
   plan that parses but does not fit the deployment is a usage error (exit
   2), not an uncaught exception. *)
let test_validate () =
  let topology = Topology.grid 5 in
  let reason text =
    match Fault_plan.validate ~topology (parse_ok text) with
    | Ok () -> "ok"
    | Error e -> e
  in
  Alcotest.(check string) "node past the deployment"
    "crash node 9999 out of range" (reason "crash@500:node=9999");
  Alcotest.(check string) "the sink" "cannot crash the sink"
    (reason "crash@500:node=12");
  Alcotest.(check string) "link endpoint" "degrade node 25 out of range"
    (reason "degrade@5:3-25,0.5");
  Alcotest.(check string) "negative time"
    "time -1 is not a non-negative number" (reason "crash@-1:node=3");
  Alcotest.(check string) "negative k" "crash target k=-2 is negative"
    (reason "crash@1:k=-2");
  Alcotest.(check string) "a fitting plan" "ok"
    (reason "crash@500:node=9;revive@600:all;burst@700:0.3,25")

(* ------------------------------------------------------------------ *)
(* Alive-restricted checking                                          *)
(* ------------------------------------------------------------------ *)

let test_alive_restriction () =
  (* Line 0-1-2-3-4 with sink 4 and ascending slots: a valid weak DAS.
     Killing node 2 partitions {0,1}; the surviving reachable part {3}
     still satisfies the weak condition, so the alive-restricted check
     passes even though the full check reports the partitioned side. *)
  let g = Graph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let sched = Schedule.of_alist ~n:5 ~sink:4 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let no_failures = Array.make 5 false in
  Alcotest.(check bool) "healthy line is weak" true
    (Resilience.weak_ok g ~sink:4 ~failed:no_failures sched);
  let failed = Array.make 5 false in
  failed.(2) <- true;
  let masked = Resilience.masked_schedule sched ~failed in
  Alcotest.(check (option int)) "dead node cleared" None (Schedule.slot masked 2);
  Alcotest.(check (option int)) "alive slots kept" (Some 4) (Schedule.slot masked 3);
  let reach = Resilience.alive_reachable g ~sink:4 ~failed in
  Alcotest.(check (list bool)) "reachability mask"
    [ false; false; false; true; true ]
    (Array.to_list reach);
  Alcotest.(check bool) "full check fails on the partition" false
    (Das_check.is_weak g masked);
  Alcotest.(check bool) "alive-restricted check passes" true
    (Resilience.weak_ok g ~sink:4 ~failed sched);
  Alcotest.(check bool) "alive-restricted strong passes too" true
    (Resilience.strong_ok g ~sink:4 ~failed sched)

(* ------------------------------------------------------------------ *)
(* Counter algebra                                                    *)
(* ------------------------------------------------------------------ *)

let test_counters_algebra () =
  let c1 =
    {
      Resilience.empty with
      Resilience.runs = 1;
      crashes = 2;
      epochs = 1;
      reconverged = 1;
      reconverge_periods_total = 3;
      weak_final = 1;
      delivery_ratio_total = 0.75;
    }
  in
  let c2 =
    {
      Resilience.empty with
      Resilience.runs = 2;
      crashes = 1;
      epochs = 2;
      reconverged = 1;
      reconverge_periods_total = 5;
      strong_final = 1;
      delivery_ratio_total = 1.5;
    }
  in
  Alcotest.(check bool) "empty is neutral" true
    (Resilience.merge Resilience.empty c1 = c1);
  Alcotest.(check bool) "merge_all folds in order" true
    (Resilience.merge_all [ c1; c2 ]
    = Resilience.merge (Resilience.merge Resilience.empty c1) c2);
  let m = Resilience.merge c1 c2 in
  Alcotest.(check int) "runs add" 3 m.Resilience.runs;
  Alcotest.(check int) "crashes add" 3 m.Resilience.crashes;
  Alcotest.(check (option (float 1e-9))) "mean reconvergence" (Some 4.0)
    (Resilience.mean_reconverge_periods m);
  Alcotest.(check (option (float 1e-9))) "mean delivery" (Some 0.75)
    (Resilience.mean_delivery_ratio m);
  Alcotest.(check string) "json is stable" (Resilience.to_json m)
    (Resilience.to_json (Resilience.merge c1 c2))

(* ------------------------------------------------------------------ *)
(* Churn runs                                                         *)
(* ------------------------------------------------------------------ *)

let churn_config ?(mode = Protocol.Protectionless) ?revive_after_periods ?burst
    ~seed () =
  let params = Params.default in
  let plan =
    Churn.churn_plan ~params ~crashes:2 ~crash_period:40 ?revive_after_periods
      ?burst ()
  in
  { (Churn.default_config ~mode ~dim:5 ~seed plan) with Churn.params }

let crash_epoch (r : Resilience.report) =
  match
    List.filter (fun e -> e.Resilience.kind = "crash") r.Resilience.epochs
  with
  | [ e ] -> e
  | l -> Alcotest.failf "expected one crash epoch, got %d" (List.length l)

let test_churn_repairs () =
  let r = Churn.run (churn_config ~seed:3 ()) in
  Alcotest.(check int) "two crashes" 2 r.Resilience.crashes;
  Alcotest.(check int) "no revivals" 0 r.Resilience.revivals;
  let e = crash_epoch r in
  Alcotest.(check bool) "crash epoch reconverged" true
    (e.Resilience.reconverge_periods <> None);
  Alcotest.(check bool) "final schedule weak under alive-restriction" true
    r.Resilience.weak_final;
  Alcotest.(check int) "no orphans left unassigned" 0 r.Resilience.unrepaired;
  (* The deadline truncates the last generation period mid-flight (same as
     Runner), so a perfect run tops out at (g-1)/g, here 7/8. *)
  Alcotest.(check bool) "delivery survived the repair" true
    (r.Resilience.delivery_ratio >= 0.85);
  Alcotest.(check bool) "post-fault SLP verdict computed" true
    (r.Resilience.slp_after <> None)

let test_churn_revival () =
  let r = Churn.run (churn_config ~seed:9 ~revive_after_periods:20 ()) in
  Alcotest.(check int) "two crashes" 2 r.Resilience.crashes;
  Alcotest.(check int) "two revivals" 2 r.Resilience.revivals;
  Alcotest.(check bool) "weak after rejoin" true r.Resilience.weak_final;
  Alcotest.(check int) "revived nodes re-assigned" 0 r.Resilience.unrepaired;
  Alcotest.(check int) "nobody partitioned" 0 r.Resilience.alive_unreachable

let test_churn_burst () =
  let r = Churn.run (churn_config ~seed:5 ~burst:(0.3, 20.0) ()) in
  let burst =
    match
      List.filter (fun e -> e.Resilience.kind = "burst") r.Resilience.epochs
    with
    | [ e ] -> e
    | l -> Alcotest.failf "expected one burst epoch, got %d" (List.length l)
  in
  (match burst.Resilience.delivery_during with
  | None -> Alcotest.fail "burst window generated no readings"
  | Some d ->
    Alcotest.(check bool) "burst delivery is a ratio" true (d >= 0.0 && d <= 1.0);
    Alcotest.(check bool) "the burst lost data" true (d < 1.0));
  Alcotest.(check bool) "overall delivery dips below 1" true
    (r.Resilience.delivery_ratio < 1.0)

let test_churn_slp_mode () =
  let r = Churn.run (churn_config ~mode:Protocol.Slp ~seed:7 ()) in
  Alcotest.(check bool) "pre-fault SLP verdict computed" true
    (r.Resilience.slp_before <> None);
  Alcotest.(check bool) "post-fault SLP verdict computed" true
    (r.Resilience.slp_after <> None);
  Alcotest.(check bool) "weak after repair in SLP mode" true
    r.Resilience.weak_final

let test_churn_deterministic () =
  let cfg = churn_config ~seed:3 () in
  let r1 = Churn.run cfg in
  let r2 = Churn.run cfg in
  Alcotest.(check bool) "identical reports for identical configs" true (r1 = r2)

(* The churn workload replayed on the spec oracle.  The replay rebuilds
   what Churn.scenario runs — the protocol program, the compiled plan armed
   the way Injector.arm arms it (neighbour notification one dissemination
   period after each crash, hellos from the alive neighbours on a revival)
   and the period-boundary schedule probes — and must reproduce the engine
   run's event counters and its final weak-DAS verdict. *)
let test_churn_oracle () =
  let cfg =
    churn_config ~seed:11 ~revive_after_periods:25 ~burst:(0.3, 20.0) ()
  in
  let report, counters = Churn.run_with_events cfg in
  let topology = Topology.grid cfg.Churn.dim in
  let graph = topology.Topology.graph in
  let n = Graph.n graph in
  let source = topology.Topology.source and sink = topology.Topology.sink in
  let delta_ss = Topology.source_sink_distance topology in
  let params = cfg.Churn.params in
  let config =
    Params.protocol_config ~data_sources:[ source ] params ~mode:cfg.Churn.mode
      ~sink ~delta_ss ~seed:cfg.Churn.seed
  in
  let period_length = Protocol.period_length config in
  let deadline =
    min
      (Protocol.normal_start config
      +. Safety.safety_seconds ~factor:params.Params.safety_factor
           ~period_length ~delta_ss ())
      (Safety.upper_time_bound ~nodes:n ~source_period:params.Params.source_period)
  in
  let ops =
    Fault_plan.compile ~protect:[ source ] ~topology
      ~seed:(cfg.Churn.seed lxor 0xfa17) cfg.Churn.plan
  in
  let spec =
    Spec.create ~topology ~link:Link_model.Ideal
      ~rng:(Rng.create (cfg.Churn.seed lxor 0x5113_da5))
      ~program:(Protocol.program config) ()
  in
  let each_alive_neighbour s v f =
    Array.iter
      (fun u -> if not (Spec.node_failed s u) then f u)
      (Graph.neighbours graph v)
  in
  List.iter
    (fun { Fault_plan.time; op } ->
      Spec.schedule spec ~at:time (fun s ->
          match op with
          | Fault_plan.Fail v ->
            Spec.fail_node s v;
            Spec.schedule s
              ~at:(time +. config.Protocol.dissemination_period)
              (fun s ->
                each_alive_neighbour s v (fun u ->
                    Spec.inject s ~node:u
                      (Gcn.Receive
                         { sender = v; msg = Messages.Neighbour_down v })))
          | Fault_plan.Restart v ->
            Spec.revive_node s v;
            each_alive_neighbour s v (fun u ->
                Spec.inject s ~node:v
                  (Gcn.Receive { sender = u; msg = Messages.Hello }))
          | Fault_plan.Set_link { a; b; loss } -> Spec.set_link_loss s ~a ~b loss
          | Fault_plan.Set_global loss -> Spec.set_global_loss s loss))
    ops;
  let weak s =
    let failed = Array.init n (Spec.node_failed s) in
    let sched =
      Protocol.extract_schedule ~n config (fun v -> Spec.node_state s v)
    in
    Resilience.weak_ok graph ~sink ~failed
      (Resilience.masked_schedule sched ~failed)
  in
  let probes = ref 0 in
  for p =
    config.Protocol.neighbour_discovery_periods + 1
    to config.Protocol.minimum_setup_periods
  do
    Spec.schedule spec ~at:(float_of_int p *. period_length) (fun s ->
        ignore (weak s);
        incr probes)
  done;
  Spec.run_until spec deadline;
  let oracle = Spec.counters spec in
  Alcotest.(check bool) "every probe ran" true (!probes > 0);
  Alcotest.(check bool) "counters agree with the oracle" true (oracle = counters);
  Alcotest.(check int) "failure events agree" oracle.Event.node_failures
    counters.Event.node_failures;
  Alcotest.(check int) "revival events agree" oracle.Event.node_revivals
    counters.Event.node_revivals;
  Alcotest.(check int) "link events agree" oracle.Event.link_changes
    counters.Event.link_changes;
  Alcotest.(check bool) "final weak verdict agrees" (weak spec)
    report.Resilience.weak_final;
  Alcotest.(check int) "two failures seen on the bus" 2
    counters.Event.node_failures;
  Alcotest.(check int) "two revivals seen on the bus" 2
    counters.Event.node_revivals;
  Alcotest.(check int) "burst on and off seen on the bus" 2
    counters.Event.link_changes

let test_churn_domains_invariant () =
  let configs =
    [
      churn_config ~seed:3 ();
      churn_config ~seed:4 ~revive_after_periods:20 ();
      churn_config ~mode:Protocol.Slp ~seed:5 ();
    ]
  in
  let r1, c1 = Churn.run_many_with_events ~domains:1 configs in
  let r2, c2 = Churn.run_many_with_events ~domains:2 configs in
  Alcotest.(check bool) "reports independent of domains" true (r1 = r2);
  Alcotest.(check bool) "event counters independent of domains" true (c1 = c2);
  let json rs =
    Resilience.to_json (Resilience.merge_all (List.map Resilience.of_report rs))
  in
  Alcotest.(check string) "resilience JSON byte-identical across domains"
    (json r1) (json r2)

let test_churn_table_row () =
  let r = Churn.run (churn_config ~seed:3 ()) in
  Alcotest.(check int) "row matches header" (List.length Churn.header)
    (List.length (Churn.row r))

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "round trip" `Quick test_plan_round_trip;
          Alcotest.test_case "parse errors" `Quick test_plan_errors;
        ] );
      ( "compile",
        [
          Alcotest.test_case "deterministic" `Quick test_compile_deterministic;
          Alcotest.test_case "region" `Quick test_compile_region;
          Alcotest.test_case "burst + links" `Quick test_compile_burst_and_links;
          Alcotest.test_case "rejects" `Quick test_compile_rejects;
          Alcotest.test_case "validate against the deployment" `Quick
            test_validate;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "alive restriction" `Quick test_alive_restriction;
          Alcotest.test_case "counter algebra" `Quick test_counters_algebra;
        ] );
      ( "churn",
        [
          Alcotest.test_case "crash repair" `Quick test_churn_repairs;
          Alcotest.test_case "revival rejoin" `Quick test_churn_revival;
          Alcotest.test_case "loss burst" `Quick test_churn_burst;
          Alcotest.test_case "slp mode" `Quick test_churn_slp_mode;
          Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
          Alcotest.test_case "oracle replay" `Quick test_churn_oracle;
          Alcotest.test_case "domain invariance" `Quick
            test_churn_domains_invariant;
          Alcotest.test_case "table row" `Quick test_churn_table_row;
        ] );
    ]
