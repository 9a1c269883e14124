type ('s, 'm, 'obs, 'r) t = {
  name : string;
  topology : Slpdas_wsn.Topology.t;
  link : Slpdas_sim.Link_model.t;
  airtime : float option;
  engine_seed : int;
  program : self:int -> ('s, 'm) Slpdas_gcn.program;
  deadline : float;
  attach : ('s, 'm) Slpdas_sim.Engine.t -> 'obs;
  extract : ('s, 'm) Slpdas_sim.Engine.t -> 'obs -> 'r;
  monitors : (('s, 'm) Slpdas_sim.Engine.t -> unit) list;
  faults : (('s, 'm) Slpdas_sim.Engine.t -> unit) list;
}

let make ?(airtime = None) ?(monitors = []) ?(faults = []) ~name ~topology
    ~link ~engine_seed ~program ~deadline ~attach ~extract () =
  {
    name;
    topology;
    link;
    airtime;
    engine_seed;
    program;
    deadline;
    attach;
    extract;
    monitors;
    faults;
  }

let with_monitor monitor t = { t with monitors = t.monitors @ [ monitor ] }

let with_faults arm t = { t with faults = t.faults @ [ arm ] }

let map_result f t =
  { t with extract = (fun engine obs -> f (t.extract engine obs)) }
