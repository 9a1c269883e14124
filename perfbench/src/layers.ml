(* The per-layer metrics of the traced run: name, unit and which direction
   is better.  Every workload reports every metric (0 where the workload
   does not cross that layer), so a change that moves a layer on a
   workload that should not touch it shows as a nonzero delta.

   Counts are totals over one traced pass of the workload (a fixed,
   seed-determined list of operations) and repeat exactly.  A "_s" or
   "_us" metric is the mean duration of one call across the named
   boundary, except core.protocol.fired_s / rejected_s and sim.self_s,
   which are per DES run. *)

let table =
  [
    ("exp.run_s", "s", "lower");
    ("exp.extract_s", "s", "lower");
    ("exp.minor_words_per_event", "words/event", "lower");
    ("exp.major_collections", "count", "lower");
    ("sim.events", "count", "lower");
    ("sim.timer_fires", "count", "lower");
    ("sim.broadcasts", "count", "lower");
    ("sim.deliveries", "count", "lower");
    ("sim.drops_link", "count", "lower");
    ("sim.drops_collision", "count", "lower");
    ("sim.node_failures", "count", "lower");
    ("sim.node_revivals", "count", "lower");
    ("sim.attacker_moves", "count", "lower");
    ("sim.events_per_s", "1/s", "higher");
    ("sim.self_s", "s", "lower");
    ("gcn.handler_calls", "count", "lower");
    ("gcn.fires", "count", "lower");
    ("gcn.fire_ratio", "ratio", "higher");
    ("gcn.handler_calls_per_event", "calls/event", "lower");
    ("gcn.spontaneous_guard_calls", "count", "lower");
    ("gcn.spontaneous_fires", "count", "lower");
    ("core.protocol.fired_s", "s", "lower");
    ("core.protocol.rejected_s", "s", "lower");
  ]
  @ List.map
      (fun a -> ("core.protocol.fires." ^ a, "count", "lower"))
      (Array.to_list Counted.protocol_actions)
  @ [
      ("core.protocol.effects", "count", "lower");
      ("core.das_build_s", "s", "lower");
      ("core.slp_refine_s", "s", "lower");
      ("core.verifier_s", "s", "lower");
      ("core.verifier_states", "count", "lower");
      ("core.das_check_s", "s", "lower");
      ("wsn.topology_s", "s", "lower");
      ("attack.mc_trials", "count", "lower");
      ("attack.mc_certify_s", "s", "lower");
      ("attack.mc_trials_per_s", "1/s", "higher");
      ("serve.mem_hits", "count", "higher");
      ("serve.disk_hits", "count", "higher");
      ("serve.misses", "count", "lower");
      ("serve.stores", "count", "lower");
      ("serve.evictions", "count", "lower");
      ("serve.computed", "count", "lower");
      ("serve.incremental", "count", "higher");
      ("serve.hit_ratio", "ratio", "higher");
      ("serve.hit_us", "us", "lower");
      ("serve.disk_hit_us", "us", "lower");
      ("serve.miss_us", "us", "lower");
      ("serve.reverify_us", "us", "lower");
      ("serve.batch_us_per_query", "us", "lower");
      ("serve.key_us", "us", "lower");
      ("serve.warm_qps", "1/s", "higher");
      ("fault.revalidate_s", "s", "lower");
      ("fault.reconverge_periods", "periods", "lower");
      ("trace.overhead", "ratio", "lower");
      ("trace.coverage", "ratio", "higher");
    ]

(* [metrics values] lays the workload's [(name, value, samples)] triples
   out in table order, defaulting absent layers to 0. *)
let metrics values =
  List.iter
    (fun (n, _, _) ->
      if not (List.exists (fun (m, _, _) -> String.equal m n) table) then
        invalid_arg ("Layers.metrics: unknown metric " ^ n))
    values;
  List.map
    (fun (name, unit_, _) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) values with
      | Some (_, v, samples) -> Report.metric ~samples name unit_ v
      | None -> Report.metric ~samples:0 name unit_ 0.0)
    table

let of_counters (c : Slpdas_sim.Event.counters) ~runs =
  let f = float_of_int in
  [
    ("sim.events", f (Slpdas_sim.Event.total c), runs);
    ("sim.timer_fires", f c.Slpdas_sim.Event.timer_fires, runs);
    ("sim.broadcasts", f c.Slpdas_sim.Event.broadcasts, runs);
    ("sim.deliveries", f c.Slpdas_sim.Event.deliveries, runs);
    ("sim.drops_link", f c.Slpdas_sim.Event.drops_link, runs);
    ("sim.drops_collision", f c.Slpdas_sim.Event.drops_collision, runs);
    ("sim.node_failures", f c.Slpdas_sim.Event.node_failures, runs);
    ("sim.node_revivals", f c.Slpdas_sim.Event.node_revivals, runs);
    ("sim.attacker_moves", f c.Slpdas_sim.Event.attacker_moves, runs);
  ]
