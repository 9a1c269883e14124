(* The two workloads that run the discrete-event simulation: fig5_des
   (Capture.simulated, the `experiment` path) and des_churn
   (Churn.run_many, the `chaos` path).

   The timed loop calls the public entry point once per operation.  The
   traced run alternates an unwrapped and a {!Counted}-wrapped
   Harness.run_with_events on the same scenarios, so the two runs'
   results and event counters can be compared and the tracing overhead
   measured on identical work. *)

module Capture = Slpdas_exp.Capture
module Event = Slpdas_sim.Event

let b = string_of_bool

let opt_int = function None -> "-" | Some p -> string_of_int p

(* Event counters on one line (Event.to_json spans several). *)
let counters_line (c : Event.counters) =
  let t = function None -> "-" | Some x -> Printf.sprintf "%h" x in
  Printf.sprintf
    "runs=%d broadcasts=%d deliveries=%d drops_link=%d drops_collision=%d timer_fires=%d attacker_moves=%d phases=%d failures=%d revivals=%d link_changes=%d first=%s last=%s"
    c.Event.runs c.Event.broadcasts c.Event.deliveries c.Event.drops_link
    c.Event.drops_collision c.Event.timer_fires c.Event.attacker_moves
    c.Event.phase_transitions c.Event.node_failures c.Event.node_revivals
    c.Event.link_changes (t c.Event.first_event) (t c.Event.last_event)

(* One traced pass: accumulators over a fixed list of operations. *)
type pass = {
  probe : Counted.probe;
  mutable runs : int;
  mutable counters : Event.counters;
  mutable untraced_s : float;
  mutable traced_s : float;  (** per operation, including scenario set-up *)
  mutable minor_words : float;
  mutable major_collections : int;
}

let new_pass () =
  {
    probe = Counted.create ~action_names:Counted.protocol_actions;
    runs = 0;
    counters = Event.empty;
    untraced_s = 0.0;
    traced_s = 0.0;
    minor_words = 0.0;
    major_collections = 0;
  }

(* Run [scenario ()] unwrapped, then wrapped, and check that both give the
   same [render]ing of result and counters.  Returns the wrapped run's
   result and counters. *)
let traced_run pass ~trace ~check ~op ~scenario ~render =
  let gc0 = Gc.quick_stat () in
  let (ru, cu), tu =
    Clock.timed (fun () -> Slpdas_exp.Harness.run_with_events (scenario ()))
  in
  let gc1 = Gc.quick_stat () in
  let (rw, cw), tw =
    Clock.timed (fun () ->
        let wrapped = Counted.wrap ~trace ~op pass.probe (scenario ()) in
        Trace.span trace ~op "exp.run" (fun () ->
            Slpdas_exp.Harness.run_with_events wrapped))
  in
  pass.runs <- pass.runs + 1;
  pass.counters <- Event.merge pass.counters cw;
  pass.untraced_s <- pass.untraced_s +. tu;
  pass.traced_s <- pass.traced_s +. tw;
  pass.minor_words <- pass.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  pass.major_collections <-
    pass.major_collections + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  let u = render ru cu and w = render rw cw in
  Check.invariant check (String.equal u w)
    (Printf.sprintf "op %d: wrapped run differs from unwrapped: %S vs %S" op w u);
  (rw, cw)

(* Exact counts of a pass, which must repeat in every later pass. *)
let signature pass =
  let p = pass.probe in
  Printf.sprintf "runs=%d handler_calls=%d fires=%d effects=%d guards=%d spont=%d per_action=%s counters=%s"
    pass.runs p.Counted.handler_calls p.Counted.fires p.Counted.effects
    p.Counted.guard_calls p.Counted.spontaneous_fires
    (String.concat "," (Array.to_list (Array.map string_of_int p.Counted.action_fires)))
    (counters_line pass.counters)

(* Per-layer values over the traced passes: counts from the first pass,
   timings averaged over all of them. *)
let layer_values passes trace =
  let first = List.hd passes in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 passes in
  let runs = List.fold_left (fun acc p -> acc + p.runs) 0 passes in
  let fr = float_of_int runs in
  let events = Event.total first.counters in
  let totals = Trace.totals trace in
  let run_span = totals "exp.run" in
  let per_run ns = Report.ratio (sum (fun q -> Clock.seconds (ns q.probe))) fr in
  let fired_s = per_run (fun q -> q.Counted.fired_ns) in
  let rejected_s = per_run (fun q -> q.Counted.rejected_ns) in
  let extract_s = per_run (fun q -> q.Counted.extract_ns) in
  let run_s = Report.ratio run_span.Trace.total_s fr in
  let untraced = sum (fun p -> p.untraced_s) in
  let traced = sum (fun p -> p.traced_s) in
  let timings =
    [
      ("exp.run_s", run_s, runs);
      ( "exp.minor_words_per_event",
        Report.ratio first.minor_words (float_of_int events),
        first.runs );
      ("exp.major_collections", float_of_int first.major_collections, first.runs);
      ( "sim.events_per_s",
        Report.ratio (sum (fun p -> float_of_int (Event.total p.counters))) untraced,
        runs );
      ("sim.self_s", run_s -. fired_s -. rejected_s -. extract_s, runs);
      ("trace.overhead", Report.ratio traced untraced -. 1.0, runs);
      ("trace.coverage", Report.ratio (Trace.top_level_s trace) traced, runs);
    ]
  in
  (* Handler counts come from the first pass; handler times are per run,
     averaged over every pass. *)
  let p = first.probe in
  let f = float_of_int in
  let n = first.runs in
  timings
  @ [
      ("gcn.handler_calls", f p.Counted.handler_calls, n);
      ("gcn.fires", f p.Counted.fires, n);
      ("gcn.fire_ratio", Report.ratio (f p.Counted.fires) (f p.Counted.handler_calls), n);
      ("gcn.handler_calls_per_event", Report.ratio (f p.Counted.handler_calls) (f events), n);
      ("gcn.spontaneous_guard_calls", f p.Counted.guard_calls, n);
      ("gcn.spontaneous_fires", f p.Counted.spontaneous_fires, n);
      ("core.protocol.fired_s", fired_s, runs);
      ("core.protocol.rejected_s", rejected_s, runs);
      ("core.protocol.effects", f p.Counted.effects, n);
      ("exp.extract_s", extract_s, runs);
    ]
  @ List.mapi
      (fun i a -> ("core.protocol.fires." ^ a, f p.Counted.action_fires.(i), n))
      (Array.to_list p.Counted.action_names)
  @ Layers.of_counters first.counters ~runs:n

(* Run traced passes (each preceded by its unwrapped twin inside
   [traced_run]) until [seconds] have passed; later passes must repeat the
   first pass's counts exactly. *)
let traced_passes ~seconds ~check ~trace pass_fn =
  let passes = ref [] in
  let _ =
    Loop.until ~seconds (fun _ ->
        let p = new_pass () in
        pass_fn p;
        passes := p :: !passes)
  in
  let passes = List.rev !passes in
  let s0 = signature (List.hd passes) in
  List.iteri
    (fun k p ->
      Check.global check (String.equal s0 (signature p))
        (Printf.sprintf "traced pass %d counts differ from pass 0" k))
    passes;
  layer_values passes trace

(* fig5_des ------------------------------------------------------------- *)

(* The three Fig. 5 series on the paper's 21x21 grid. *)
let series =
  let p = Slpdas_exp.Params.default in
  [|
    ("protectionless", Slpdas_core.Protocol.Protectionless, p);
    ("slp-sd3", Slpdas_core.Protocol.Slp, Slpdas_exp.Params.with_search_distance 3 p);
    ("slp-sd5", Slpdas_core.Protocol.Slp, Slpdas_exp.Params.with_search_distance 5 p);
  |]

let fig5_dim = 21

(* Operation [i] runs series [i mod 3] with run seed [seed*1000 + i/3]:
   every series sees the same run seeds, as in Fig. 5. *)
let fig5_op ~seed i =
  let label, mode, params = series.(i mod Array.length series) in
  (label, mode, params, (seed * 1000) + (i / Array.length series))

let detail_line i label (d : Capture.run_detail) =
  Printf.sprintf "des.%d %s seed=%d captured=%s periods=%s strong=%s weak=%s setup_msgs=%d"
    i label d.Capture.seed (b d.Capture.captured) (opt_int d.Capture.capture_periods)
    (b d.Capture.strong_das) (b d.Capture.weak_das) d.Capture.setup_messages

(* The run detail Capture.simulated derives from a Runner result. *)
let detail_of_result ~params ~seed (r : Slpdas_exp.Runner.result) =
  {
    Capture.seed;
    captured = r.Slpdas_exp.Runner.captured;
    capture_periods =
      Option.map
        (fun s -> int_of_float (ceil (s /. Slpdas_exp.Params.period_length params)))
        r.Slpdas_exp.Runner.capture_seconds;
    strong_das = r.Slpdas_exp.Runner.strong_das;
    weak_das = r.Slpdas_exp.Runner.weak_das;
    setup_messages = r.Slpdas_exp.Runner.setup_messages;
  }

let des_trace_line i (r : Slpdas_exp.Runner.result) c =
  Printf.sprintf "des.%d.trace complete=%s total_msgs=%d schedule=%s attacker_path=%d delivered=%d counters=%s"
    i (b r.Slpdas_exp.Runner.complete) r.Slpdas_exp.Runner.total_messages
    (Slpdas_core.Schedule.digest r.Slpdas_exp.Runner.schedule)
    (List.length r.Slpdas_exp.Runner.attacker_path)
    (List.length r.Slpdas_exp.Runner.delivered_readings)
    (counters_line c)

let check_detail check i (d : Capture.run_detail) =
  Check.invariant check d.Capture.weak_das
    (Printf.sprintf "des.%d: final schedule is not a weak DAS (hence incomplete)" i)

let fig5_config ~topology ~seed i =
  let label, mode, params, run_seed = fig5_op ~seed i in
  ( label,
    params,
    run_seed,
    { (Slpdas_exp.Runner.default_config ~topology ~mode ~seed:run_seed) with
      Slpdas_exp.Runner.params } )

(* Set-up builds the grid and the scenario values of the first operation
   of each series (protocol configuration, deadline, observers). *)
let fig5_setup ~seed () =
  let topology, topo_s = Clock.timed (fun () -> Slpdas_wsn.Topology.grid fig5_dim) in
  for i = 0 to Array.length series - 1 do
    let _, _, _, config = fig5_config ~topology ~seed i in
    ignore (Slpdas_exp.Runner.scenario config)
  done;
  (topology, topo_s)

(* In the untraced loops the first operation warms the heap: it is
   checked but its latency is not recorded. *)
let fig5_untraced ~seed ~seconds ~check ~topology =
  let lat = Loop.samples () in
  let _ =
    Loop.until ~seconds (fun i ->
        let label, mode, params, run_seed = fig5_op ~seed i in
        match
          Check.op check (fun () ->
              let summary, dt =
                Clock.timed (fun () ->
                    Capture.simulated ~domains:Host.domains ~topology ~mode ~params
                      ~link:Slpdas_sim.Link_model.Ideal
                      ~attacker:Slpdas_core.Attacker.canonical ~seeds:[ run_seed ] ())
              in
              let d = List.hd summary.Capture.details in
              Check.line check (detail_line i label d);
              check_detail check i d;
              dt)
        with
        | Some dt when i > 0 -> Loop.add lat dt
        | Some _ | None -> ())
  in
  lat

let fig5_traced ~seed ~seconds ~check ~topology =
  let trace = Trace.create () in
  let layers =
    traced_passes ~seconds ~check ~trace (fun pass ->
        for i = 0 to Array.length series - 1 do
          let label, params, run_seed, config = fig5_config ~topology ~seed i in
          let render r c =
            detail_line i label (detail_of_result ~params ~seed:run_seed r)
            ^ "\n" ^ des_trace_line i r c
          in
          ignore
            (Check.op check (fun () ->
                 let r, c =
                   traced_run pass ~trace ~check ~op:i
                     ~scenario:(fun () -> Slpdas_exp.Runner.scenario config)
                     ~render
                 in
                 let d = detail_of_result ~params ~seed:run_seed r in
                 Check.line check (detail_line i label d);
                 Check.line check (des_trace_line i r c);
                 check_detail check i d;
                 Check.invariant check r.Slpdas_exp.Runner.complete
                   (Printf.sprintf "des.%d: schedule incomplete" i)))
        done)
  in
  (layers, trace)

(* des_churn ------------------------------------------------------------ *)

let churn_dim = 15

let churn_crashes = 3

let churn_plan () =
  let params = Slpdas_exp.Params.default in
  Slpdas_fault.Churn.churn_plan ~params ~crashes:churn_crashes
    ~revive_after_periods:10 ~burst:(0.3, 10.0) ()

let churn_config ~seed plan i =
  Slpdas_fault.Churn.default_config ~dim:churn_dim ~seed:((seed * 1000) + i) plan

(* Set-up builds the plan and the first run's scenario value (grid,
   protocol configuration, fault plan resolved to node operations). *)
let churn_setup ~seed () =
  let plan = churn_plan () in
  ignore (Slpdas_fault.Churn.scenario (churn_config ~seed plan 0));
  plan

let churn_line i (r : Slpdas_fault.Resilience.report) =
  Printf.sprintf "churn.%d %s" i (String.concat " " (Slpdas_fault.Churn.row r))

let churn_trace_line i (r : Slpdas_fault.Resilience.report) c =
  let epoch (e : Slpdas_fault.Resilience.epoch) =
    Printf.sprintf "%s@%g:%s:%s" e.Slpdas_fault.Resilience.kind
      e.Slpdas_fault.Resilience.time
      (opt_int e.Slpdas_fault.Resilience.reconverge_periods)
      (match e.Slpdas_fault.Resilience.delivery_during with
      | None -> "-"
      | Some d -> Printf.sprintf "%.4f" d)
  in
  Printf.sprintf "churn.%d.trace link_ops=%d epochs=%s counters=%s" i
    r.Slpdas_fault.Resilience.link_ops
    (String.concat "," (List.map epoch r.Slpdas_fault.Resilience.epochs))
    (counters_line c)

(* What the canonical plan guarantees for every seed: its crashes,
   revivals and burst all happen.  Whether repair ends in a weak DAS is
   not guaranteed (EXPERIMENTS.md reports 3/4 for crash+revive), so that
   verdict is checked only against the default seed's expected rows. *)
let check_churn check i (r : Slpdas_fault.Resilience.report) =
  let inv ok what = Check.invariant check ok (Printf.sprintf "churn.%d: %s" i what) in
  let module R = Slpdas_fault.Resilience in
  inv (r.R.nodes = churn_dim * churn_dim) "node count";
  inv (r.R.crashes = churn_crashes) "crash count";
  inv (r.R.revivals = churn_crashes) "revival count";
  inv (r.R.link_ops = 2) "burst set and clear";
  inv
    (List.map (fun e -> e.R.kind) r.R.epochs = [ "crash"; "revive"; "burst" ])
    "epochs";
  inv (r.R.delivery_ratio >= 0.0 && r.R.delivery_ratio <= 1.0) "delivery ratio"

let churn_untraced ~seed ~seconds ~check ~plan =
  let lat = Loop.samples () in
  let _ =
    Loop.until ~seconds (fun i ->
        match
          Check.op check (fun () ->
              let reports, dt =
                Clock.timed (fun () ->
                    Slpdas_fault.Churn.run_many ~domains:Host.domains
                      [ churn_config ~seed plan i ])
              in
              let r = List.hd reports in
              Check.line check (churn_line i r);
              check_churn check i r;
              dt)
        with
        | Some dt when i > 0 -> Loop.add lat dt
        | Some _ | None -> ())
  in
  lat

let churn_pass_runs = 4

let churn_traced ~seed ~seconds ~check ~plan =
  let trace = Trace.create () in
  let reconverge = ref None in
  let layers =
    traced_passes ~seconds ~check ~trace (fun pass ->
        let reports = ref [] in
        for i = 0 to churn_pass_runs - 1 do
          let config = churn_config ~seed plan i in
          let render r c = churn_line i r ^ "\n" ^ churn_trace_line i r c in
          ignore
            (Check.op check (fun () ->
                 let r, c =
                   traced_run pass ~trace ~check ~op:i
                     ~scenario:(fun () -> Slpdas_fault.Churn.scenario config)
                     ~render
                 in
                 Check.line check (churn_line i r);
                 Check.line check (churn_trace_line i r c);
                 check_churn check i r;
                 reports := r :: !reports))
        done;
        if Option.is_none !reconverge then
          reconverge :=
            Slpdas_fault.Resilience.mean_reconverge_periods
              (Slpdas_fault.Resilience.merge_all
                 (List.rev_map Slpdas_fault.Resilience.of_report !reports)))
  in
  let extract = List.find_opt (fun (n, _, _) -> String.equal n "exp.extract_s") layers in
  let fault =
    (match extract with
    | Some (_, v, n) -> [ ("fault.revalidate_s", v, n) ]
    | None -> [])
    @ [ ("fault.reconverge_periods", Option.value ~default:0.0 !reconverge, churn_pass_runs) ]
  in
  (layers @ fault, trace)
