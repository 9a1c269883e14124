let run_with_events (scenario : _ Scenario.t) =
  let engine =
    Slpdas_sim.Engine.create ?airtime:scenario.Scenario.airtime
      ~topology:scenario.Scenario.topology ~link:scenario.Scenario.link
      ~rng:(Slpdas_util.Rng.create scenario.Scenario.engine_seed)
      ~program:scenario.Scenario.program ()
  in
  List.iter (fun monitor -> monitor engine) scenario.Scenario.monitors;
  List.iter (fun arm -> arm engine) scenario.Scenario.faults;
  let obs = scenario.Scenario.attach engine in
  Slpdas_sim.Engine.run_until engine scenario.Scenario.deadline;
  (scenario.Scenario.extract engine obs, Slpdas_sim.Engine.counters engine)

let run scenario = fst (run_with_events scenario)

let run_many_with_events ?domains make configs =
  let pairs =
    Slpdas_util.Pool.with_pool ?domains (fun pool ->
        Slpdas_util.Pool.map pool
          (fun config -> run_with_events (make config))
          configs)
  in
  ( List.map fst pairs,
    Slpdas_sim.Event.merge_all (List.map snd pairs) )

let run_many ?domains make configs =
  Slpdas_util.Pool.with_pool ?domains (fun pool ->
      Slpdas_util.Pool.map pool (fun config -> run (make config)) configs)
