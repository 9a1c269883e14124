(** The shared observation interface of the adversary zoo.

    A hunter consumes [Broadcast] events as [(time, sender, message id)]
    observations — live off an engine bus ({!attach}, which emits
    [Attacker_move] events and stops the engine on capture, exactly like the
    original hard-coded hunter) or as a pure fold over a recorded stream
    ({!fold}, used by the coupled sharded engine where no single bus
    exists).  Both paths share one {!step} rule per class, so live and
    replayed verdicts agree event-for-event.

    The [Model.Local] step is a bit-identical port of the original
    hard-coded panda hunter: same per-message-id dedup table, same audibility
    check, same move/capture rule, same bus-event order. *)

type t

type move = { from_node : int; to_node : int }

type verdict = {
  location : int;  (** final position of the (capturing) walker *)
  path : int list;  (** start followed by every one-hop move, in order *)
  capture_time : float option;  (** absolute event time, [None] if safe *)
}

val create :
  Model.cls ->
  graph:Slpdas_wsn.Graph.t ->
  positions:(float * float) array ->
  start:int ->
  source:int ->
  seed:int ->
  t
(** A fresh hunter.  [positions] feeds the sector-phantom patrol (pass
    [Topology.positions]; may be [[||]] for the other classes); [seed]
    feeds only the seed-deterministic [Coop] placement. *)

val step : t -> time:float -> sender:int -> id:int option -> move option
(** One observation.  Returns the one-hop move it triggered, if any; a
    no-op after capture.  Deterministic given the observation sequence. *)

val location : t -> int
val path : t -> int list
val capture_time : t -> float option
val captured : t -> bool
val verdict : t -> verdict

val attach :
  Model.cls ->
  start:int ->
  source:int ->
  seed:int ->
  message_id:('m -> int option) ->
  ('s, 'm) Slpdas_sim.Engine.t ->
  t
(** Live hunter: subscribes to the engine bus, emits
    [Event.Attacker_move] for each move and stops the engine on capture. *)

val fold :
  Model.cls ->
  graph:Slpdas_wsn.Graph.t ->
  positions:(float * float) array ->
  start:int ->
  source:int ->
  seed:int ->
  message_id:('m -> int option) ->
  'm Slpdas_sim.Event.t array ->
  verdict
(** Pure replay over a recorded event stream (e.g. {!Slpdas_exp.Coupled}
    merged order): same step rule as {!attach}, no engine side effects. *)
