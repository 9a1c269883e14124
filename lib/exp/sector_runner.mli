(** Discrete-event runs of PSSPR-style sector phantom routing
    ({!Slpdas_core.Sector_phantom}) — the third related-work comparison
    family next to phantom and fake-source.

    Identical harness shape to {!Phantom_runner}: the eavesdropper starts
    at the sink, capture means reaching the source within the safety
    period, and the result carries the same capture/overhead fields so the
    bench can tabulate the families side by side. *)

type config = {
  topology : Slpdas_wsn.Topology.t;
  walk_length : int;  (** 0 = protectionless flooding *)
  num_sectors : int;  (** angular partition granularity (PSSPR uses 8) *)
  link : Slpdas_sim.Link_model.t;
  seed : int;
}

type result = {
  captured : bool;
  capture_seconds : float option;  (** after the source started *)
  attacker_path : int list;
  messages_sent : int;
  broadcasts_by_node : int array;
  duration_seconds : float;
  source_messages : int;
  delivered : int;
  safety_seconds : float;
  delta_ss : int;
}

val scenario :
  ?hunter:Slpdas_attack.Model.cls ->
  config ->
  ( Slpdas_core.Sector_phantom.state,
    Slpdas_core.Sector_phantom.msg,
    Slpdas_attack.Hunter.t,
    result )
  Scenario.t

val run : ?hunter:Slpdas_attack.Model.cls -> config -> result

val run_with_events :
  ?hunter:Slpdas_attack.Model.cls -> config -> result * Slpdas_sim.Event.counters

val run_many :
  ?domains:int -> ?hunter:Slpdas_attack.Model.cls -> config list -> result list

val run_many_with_events :
  ?domains:int ->
  ?hunter:Slpdas_attack.Model.cls ->
  config list ->
  result list * Slpdas_sim.Event.counters
