(** Discrete-event runs of the phantom-routing baseline ({!Slpdas_core.Phantom}),
    with the classic panda-hunter eavesdropper attached.

    The attacker ({!Slpdas_attack.Hunter}) sits at the sink and, for every
    {e distinct} message it has not yet acted on, moves to the sender of the
    first transmission of that message it hears — one hop per source
    message, the routing-layer equivalent of the paper's (1, 0, 1)
    attacker.  Capture means reaching the source within the safety period
    [1.5 × P{_src} × (∆ss + 1)].

    A thin adapter over {!Scenario}/{!Harness}; see {!scenario}.  Used by
    the bench harness to quantify the related-work comparison of §II:
    capture ratio and message cost of routing-level SLP versus the paper's
    MAC-level approach. *)

type config = {
  topology : Slpdas_wsn.Topology.t;
  walk_length : int;  (** 0 = protectionless flooding *)
  link : Slpdas_sim.Link_model.t;
  seed : int;
}

type result = {
  captured : bool;
  capture_seconds : float option;  (** after the source started *)
  attacker_path : int list;
  messages_sent : int;  (** radio transmissions over the whole run *)
  broadcasts_by_node : int array;  (** per-node transmission counts *)
  duration_seconds : float;  (** simulated time covered by the run *)
  source_messages : int;  (** messages the source originated *)
  delivered : int;  (** distinct messages that reached the sink *)
  safety_seconds : float;
  delta_ss : int;
}

val scenario :
  ?hunter:Slpdas_attack.Model.cls ->
  config ->
  ( Slpdas_core.Phantom.state,
    Slpdas_core.Phantom.msg,
    Slpdas_attack.Hunter.t,
    result )
  Scenario.t
(** Package a config as a scenario value; the hunter's moves appear as
    {!Slpdas_sim.Event.Attacker_move} on the engine's event bus.
    [?hunter] picks the adversary class (default the classic local
    eavesdropper); the zoo classes observe the same message ids. *)

val run : ?hunter:Slpdas_attack.Model.cls -> config -> result
(** [Harness.run (scenario config)].  Deterministic in [config]. *)

val run_with_events :
  ?hunter:Slpdas_attack.Model.cls -> config -> result * Slpdas_sim.Event.counters
(** Also return the run's aggregated event counters. *)

val run_many :
  ?domains:int -> ?hunter:Slpdas_attack.Model.cls -> config list -> result list
(** [List.map run] over a {!Slpdas_util.Pool} (default size: the hardware's
    recommended domain count); order-preserving and independent of
    [domains]. *)

val run_many_with_events :
  ?domains:int ->
  ?hunter:Slpdas_attack.Model.cls ->
  config list ->
  result list * Slpdas_sim.Event.counters
(** Like {!run_many}, additionally merging every run's event counters in
    input order; identical for every [domains] value. *)
