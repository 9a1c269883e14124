(** Discrete-event runs of the fake-source baseline
    ({!Slpdas_core.Fake_source}) with the panda-hunter eavesdropper.

    The attacker ({!Slpdas_attack.Hunter}) cannot distinguish fake from real
    traffic: it moves to the sender of the first transmission it hears of
    every message it has not acted on yet, exactly as in {!Phantom_runner}.
    Capture means reaching the {e real} source within the safety period.

    A thin adapter over {!Scenario}/{!Harness}; see {!scenario}. *)

type config = {
  topology : Slpdas_wsn.Topology.t;
  fake_sources : int list;
  fake_rate_multiplier : float;
      (** decoy chatter relative to the real source's rate *)
  link : Slpdas_sim.Link_model.t;
  seed : int;
}

type result = {
  captured : bool;
  capture_seconds : float option;
  attacker_path : int list;
  messages_sent : int;
  broadcasts_by_node : int array;
  duration_seconds : float;
  real_delivered : int;  (** real readings that reached the sink *)
  fake_delivered : int;  (** fake messages that reached the sink: overhead *)
  safety_seconds : float;
  delta_ss : int;
}

val scenario :
  ?hunter:Slpdas_attack.Model.cls ->
  config ->
  ( Slpdas_core.Fake_source.state,
    Slpdas_core.Fake_source.msg,
    Slpdas_attack.Hunter.t,
    result )
  Scenario.t
(** Package a config as a scenario value; the hunter's moves appear as
    {!Slpdas_sim.Event.Attacker_move} on the engine's event bus. *)

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
