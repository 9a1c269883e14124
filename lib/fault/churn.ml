type config = {
  dim : int;
  seed : int;
  mode : Slpdas_core.Protocol.mode;
  params : Slpdas_exp.Params.t;
  plan : Fault_plan.t;
  detect_after : float option;
  attacker : Slpdas_attack.Model.cls;
}

let default_config ?(mode = Slpdas_core.Protocol.Slp)
    ?(attacker = Slpdas_attack.Model.Local) ~dim ~seed plan =
  {
    dim;
    seed;
    mode;
    params = Slpdas_exp.Params.default;
    plan;
    detect_after = None;
    attacker;
  }

(* Trial budget for the Monte-Carlo δ-SLP probe of non-local classes: 64
   walks give a one-sided Wilson bound of ~5.7% at zero captures — enough to
   rank before/after repair quality without dominating the run's cost. *)
let mc_probe_trials = 64

let churn_plan ~params ?(crashes = 3) ?(crash_period = 40) ?revive_after_periods
    ?burst () =
  let pl = Slpdas_exp.Params.period_length params in
  let t_crash = float_of_int crash_period *. pl in
  let plan =
    [ Fault_plan.entry ~at:t_crash (Fault_plan.Crash (Fault_plan.Random_nodes crashes)) ]
  in
  let plan =
    match revive_after_periods with
    | None -> plan
    | Some p ->
      plan
      @ [
          Fault_plan.entry
            ~at:(t_crash +. (float_of_int p *. pl))
            (Fault_plan.Revive Fault_plan.All_crashed);
        ]
  in
  match burst with
  | None -> plan
  | Some (loss, duration) ->
    (* two periods into normal operation, when data is flowing *)
    let t =
      float_of_int (params.Slpdas_exp.Params.minimum_setup_periods + 2) *. pl
    in
    plan @ [ Fault_plan.entry ~at:t (Fault_plan.Loss_burst { loss; duration }) ]

type observation = {
  probes : (float * Slpdas_core.Schedule.t * bool) list ref;
      (* (probe time, masked schedule, alive-restricted weak verdict),
         newest first *)
}

(* Group the compiled operations into epochs: same-time crash (resp.
   revival) operations form one epoch; each link override is its own; a
   positive Set_global opens a burst epoch closed by the next clear. *)
let epochs_of_ops (ops : Fault_plan.resolved list) =
  let rec go acc = function
    | [] -> List.rev acc
    | ({ Fault_plan.time; op } : Fault_plan.resolved) :: rest -> (
      match op with
      | Fault_plan.Fail v ->
        let same, rest =
          List.partition
            (fun (o : Fault_plan.resolved) ->
              match o.op with
              | Fault_plan.Fail _ -> o.time = time
              | _ -> false)
            rest
        in
        let nodes =
          v
          :: List.filter_map
               (fun (o : Fault_plan.resolved) ->
                 match o.op with Fault_plan.Fail u -> Some u | _ -> None)
               same
        in
        go (("crash", time, nodes, None) :: acc) rest
      | Fault_plan.Restart v ->
        let same, rest =
          List.partition
            (fun (o : Fault_plan.resolved) ->
              match o.op with
              | Fault_plan.Restart _ -> o.time = time
              | _ -> false)
            rest
        in
        let nodes =
          v
          :: List.filter_map
               (fun (o : Fault_plan.resolved) ->
                 match o.op with Fault_plan.Restart u -> Some u | _ -> None)
               same
        in
        go (("revive", time, nodes, None) :: acc) rest
      | Fault_plan.Set_link _ -> go (("link", time, [], None) :: acc) rest
      | Fault_plan.Set_global p ->
        if p > 0.0 then
          let until =
            List.find_map
              (fun (o : Fault_plan.resolved) ->
                match o.op with
                | Fault_plan.Set_global q when q <= 0.0 -> Some o.time
                | _ -> None)
              rest
          in
          go (("burst", time, [], until) :: acc) rest
        else go acc rest)
  in
  go [] ops

let mode_name = function
  | Slpdas_core.Protocol.Protectionless -> "protectionless"
  | Slpdas_core.Protocol.Slp -> "slp"

let scenario config =
  let topology = Slpdas_wsn.Topology.grid config.dim in
  let graph = topology.Slpdas_wsn.Topology.graph in
  let n = Slpdas_wsn.Graph.n graph in
  let source = topology.Slpdas_wsn.Topology.source in
  let sink = topology.Slpdas_wsn.Topology.sink in
  let delta_ss = Slpdas_wsn.Topology.source_sink_distance topology in
  let protocol_config =
    Slpdas_exp.Params.protocol_config ~data_sources:[ source ] config.params
      ~mode:config.mode ~sink ~delta_ss ~seed:config.seed
  in
  let period_length = Slpdas_core.Protocol.period_length protocol_config in
  let normal_start = Slpdas_core.Protocol.normal_start protocol_config in
  let safety_seconds =
    Slpdas_core.Safety.safety_seconds
      ~factor:config.params.Slpdas_exp.Params.safety_factor ~period_length
      ~delta_ss ()
  in
  let deadline =
    min
      (normal_start +. safety_seconds)
      (Slpdas_core.Safety.upper_time_bound ~nodes:n
         ~source_period:config.params.Slpdas_exp.Params.source_period)
  in
  (* The source is protected so delivery metrics stay meaningful; the sink
     is protected by construction. *)
  let ops =
    Fault_plan.compile ~protect:[ source ] ~topology
      ~seed:(config.seed lxor 0xfa17) config.plan
  in
  let detect_after =
    match config.detect_after with
    | Some d -> d
    | None -> protocol_config.Slpdas_core.Protocol.dissemination_period
  in
  let name =
    Printf.sprintf "churn/%s/%s" topology.Slpdas_wsn.Topology.name
      (mode_name config.mode)
  in
  let extract_masked engine =
    let sched =
      Slpdas_core.Protocol.extract_schedule ~n protocol_config (fun v ->
          Slpdas_sim.Engine.node_state engine v)
    in
    let failed =
      Array.init n (fun v -> Slpdas_sim.Engine.node_failed engine v)
    in
    (Resilience.masked_schedule sched ~failed, failed)
  in
  let attach engine =
    let obs = { probes = ref [] } in
    (* One schedule probe per period boundary across the provisioning
       window: how reconvergence time is measured. *)
    let first = protocol_config.Slpdas_core.Protocol.neighbour_discovery_periods + 1 in
    let last = protocol_config.Slpdas_core.Protocol.minimum_setup_periods in
    for p = first to last do
      let at = float_of_int p *. period_length in
      Slpdas_sim.Engine.schedule engine ~at (fun e ->
          let masked, failed = extract_masked e in
          let ok = Resilience.weak_ok graph ~sink ~failed masked in
          obs.probes := (at, masked, ok) :: !(obs.probes))
    done;
    obs
  in
  let extract engine obs =
    let probes = List.rev !(obs.probes) in
    let masked, failed = extract_masked engine in
    let reach = Resilience.alive_reachable graph ~sink ~failed in
    let attacker = Slpdas_core.Attacker.canonical ~start:sink in
    let safety_period =
      Slpdas_core.Safety.safety_periods
        ~factor:config.params.Slpdas_exp.Params.safety_factor ~delta_ss ()
    in
    (* One service per extract call: extract runs in the scenario's own
       domain under Harness.run_many, and the before-schedule's certificate
       lets the post-fault verdict re-explore only the repaired frontier. *)
    let service = Slpdas_serve.Service.create () in
    let is_safe = function
      | Slpdas_core.Verifier.Safe -> true
      | Slpdas_core.Verifier.Captured _ -> false
    in
    let before_sched =
      match ops with
      | [] -> None
      | first_op :: _ -> (
        let before =
          List.filter (fun (pt, _, _) -> pt < first_op.Fault_plan.time) probes
        in
        match List.rev before with
        | [] -> None
        | (_, sched, _) :: _ -> Some sched)
    in
    let slp_before, slp_after =
      match config.attacker with
      | Slpdas_attack.Model.Local ->
        (* The paper's eavesdropper: exhaustive verification, with the
           before-schedule's certificate reused incrementally after. *)
        let slp_before =
          Option.map
            (fun sched ->
              let cert =
                Slpdas_serve.Service.verify_certified service graph sched
                  ~attacker ~safety_period ~source
              in
              is_safe cert.Slpdas_core.Verifier.cert_outcome)
            before_sched
        in
        let slp_after =
          match before_sched with
          | Some prev ->
            let outcome, _how =
              Slpdas_serve.Service.reverify service graph ~prev masked
                ~attacker ~safety_period ~source
            in
            Some (is_safe outcome)
          | None ->
            Some
              (Slpdas_serve.Service.is_slp_aware service graph masked ~attacker
                 ~safety_period ~source)
        in
        (slp_before, slp_after)
      | cls ->
        (* Classes whose exhaustive state space explodes: probe by seeded
           Monte-Carlo certification — "aware" means zero captures over the
           trial budget. *)
        let mc_safe sched =
          let r =
            Slpdas_serve.Service.mc_certify service graph sched ~cls ~attacker
              ~trials:mc_probe_trials ~seed:config.seed ~safety_period ~source
          in
          r.Slpdas_attack.Mc_verify.captures = 0
        in
        (Option.map mc_safe before_sched, Some (mc_safe masked))
    in
    let sink_state = Slpdas_sim.Engine.node_state engine sink in
    let source_state = Slpdas_sim.Engine.node_state engine source in
    let delivered = sink_state.Slpdas_core.Protocol.delivered in
    let generated =
      max 0 (source_state.Slpdas_core.Protocol.period_index + 1)
    in
    let generation_time g = normal_start +. (float_of_int g *. period_length) in
    let delivery_in_window t0 t1 =
      let in_window g =
        let t = generation_time g in
        t >= t0 && t < t1
      in
      let gen = ref 0 in
      for g = 0 to generated - 1 do
        if in_window g then incr gen
      done;
      if !gen = 0 then None
      else begin
        let del =
          List.length (List.filter (fun (_, g, _) -> in_window g) delivered)
        in
        Some (float_of_int del /. float_of_int !gen)
      end
    in
    let reconverge_after time =
      List.find_map
        (fun (pt, _, ok) ->
          if pt > time && ok then
            Some
              (max 1
                 (int_of_float (Float.ceil ((pt -. time) /. period_length))))
          else None)
        probes
    in
    let epochs =
      List.mapi
        (fun index (kind, time, affected, until) ->
          let reconverge_periods, delivery_during =
            match kind with
            | "crash" | "revive" ->
              let r = reconverge_after time in
              let t1 =
                match r with
                | Some p -> time +. (float_of_int p *. period_length)
                | None -> deadline
              in
              (r, delivery_in_window time t1)
            | "burst" ->
              let t1 = match until with Some t -> t | None -> deadline in
              (None, delivery_in_window time t1)
            | _ -> (None, None)
          in
          {
            Resilience.index;
            kind;
            time;
            affected;
            reconverge_periods;
            delivery_during;
          })
        (epochs_of_ops ops)
    in
    let count f = List.length (List.filter f ops) in
    let unrepaired = ref 0 in
    let alive_unreachable = ref 0 in
    for v = 0 to n - 1 do
      if (not failed.(v)) && not reach.(v) then incr alive_unreachable;
      if
        reach.(v) && v <> sink
        && (match Slpdas_core.Schedule.slot masked v with
           | None -> true
           | Some _ -> false)
      then incr unrepaired
    done;
    {
      Resilience.name;
      seed = config.seed;
      nodes = n;
      attacker = Slpdas_attack.Model.to_string config.attacker;
      crashes =
        count (fun (o : Fault_plan.resolved) ->
            match o.op with Fault_plan.Fail _ -> true | _ -> false);
      revivals =
        count (fun (o : Fault_plan.resolved) ->
            match o.op with Fault_plan.Restart _ -> true | _ -> false);
      link_ops =
        count (fun (o : Fault_plan.resolved) ->
            match o.op with
            | Fault_plan.Set_link _ | Fault_plan.Set_global _ -> true
            | _ -> false);
      epochs;
      weak_final = Resilience.weak_ok graph ~sink ~failed masked;
      strong_final = Resilience.strong_ok graph ~sink ~failed masked;
      slp_before;
      slp_after;
      unrepaired = !unrepaired;
      alive_unreachable = !alive_unreachable;
      delivery_ratio =
        (if generated = 0 then 0.0
         else float_of_int (List.length delivered) /. float_of_int generated);
      duration_seconds = Slpdas_sim.Engine.time engine;
    }
  in
  Slpdas_exp.Scenario.make
    ~faults:
      [
        (fun engine ->
          Injector.arm ~detect_after ~on_crash:Injector.notify_neighbours
            ~on_revive:Injector.hello_neighbours ~ops engine);
      ]
    ~name ~topology ~link:Slpdas_sim.Link_model.Ideal
    ~engine_seed:(config.seed lxor 0x5113_da5)
    ~program:(Slpdas_core.Protocol.program protocol_config)
    ~deadline ~attach ~extract ()

let run config = Slpdas_exp.Harness.run (scenario config)

let run_with_events config =
  Slpdas_exp.Harness.run_with_events (scenario config)

let run_many ?domains configs =
  Slpdas_exp.Harness.run_many ?domains scenario configs

let run_many_with_events ?domains configs =
  Slpdas_exp.Harness.run_many_with_events ?domains scenario configs

(* Report table ----------------------------------------------------------- *)

let header =
  [
    "scenario";
    "seed";
    "crash";
    "revive";
    "reconv(p)";
    "weak";
    "strong";
    "slp-pre";
    "slp-post";
    "orphans";
    "delivery";
  ]

let opt_bool = function None -> "-" | Some true -> "yes" | Some false -> "no"

let row (r : Resilience.report) =
  let reconv =
    let times =
      List.filter_map (fun e -> e.Resilience.reconverge_periods) r.epochs
    in
    match times with
    | [] -> "-"
    | _ ->
      Printf.sprintf "%.1f"
        (float_of_int (List.fold_left ( + ) 0 times)
        /. float_of_int (List.length times))
  in
  [
    r.Resilience.name;
    string_of_int r.seed;
    string_of_int r.crashes;
    string_of_int r.revivals;
    reconv;
    (if r.weak_final then "yes" else "no");
    (if r.strong_final then "yes" else "no");
    opt_bool r.slp_before;
    opt_bool r.slp_after;
    string_of_int r.unrepaired;
    Printf.sprintf "%.3f" r.delivery_ratio;
  ]
