(* A spec-level discrete-event engine: the differential oracle for
   [Slpdas_sim.Engine].

   Written from the engine's documented contract, not from its code, and
   kept as plain as possible so that it is easy to believe:

   - one queue of events ordered by (time, push sequence number);
   - timer generations keyed by (node, timer name): arming or stopping a
     timer bumps its generation, and a fire whose generation is no longer
     current is stale and dropped silently;
   - a broadcast decides every neighbour in adjacency order, first by the
     base link model ([Link_model.delivered]), then by the fault layer
     (edge override, then global loss), all drawn from the one link RNG;
     each delivered neighbour gets its own arrival event
     [propagation_delay] later, each refused one a link drop right away;
   - with airtime, one global log of recent transmissions: an arrival is
     jammed when any other transmission audible at the receiver (its own or
     a neighbour's) overlaps the one it carries;
   - crash-stop failures cancel the node's timers and silence it; a revival
     boots a fresh program instance.

   There is no link cache, no struct-of-arrays state, no batching and no
   coupling.  It depends on the library only through [Link_model.delivered],
   [Graph], [Slpdas_gcn.Instance] and [Event]. *)

module Graph = Slpdas_wsn.Graph
module Topology = Slpdas_wsn.Topology
module Gcn = Slpdas_gcn
module Event = Slpdas_sim.Event
module Link_model = Slpdas_sim.Link_model
module Rng = Slpdas_util.Rng

(* The uniform link latency of the engine's contract. *)
let propagation_delay = 0.001

module Key = struct
  type t = float * int

  let compare (a, i) (b, j) =
    match Float.compare a b with 0 -> Int.compare i j | c -> c
end

module Queue_by_time = Map.Make (Key)

type ('s, 'm) event =
  | Fire of { node : int; timer : Gcn.Timer.t; generation : int }
  | Arrive of { node : int; sender : int; sent : float; msg : 'm }
  | Callback of (('s, 'm) t -> unit)

and ('s, 'm) t = {
  topology : Topology.t;
  link : Link_model.t;
  airtime : float option;
  rng : Rng.t;
  program : self:int -> ('s, 'm) Gcn.program;
  instances : ('s, 'm) Gcn.Instance.t array;
  mutable queue : ('s, 'm) event Queue_by_time.t;
  mutable next_seq : int;
  mutable now : float;
  generations : (int * string, int) Hashtbl.t;
  transmissions : (float * int) Queue.t;  (* airtime log: (time, sender) *)
  link_loss : (int * int, float) Hashtbl.t;
  mutable global_loss : float;
  failed : bool array;
  broadcasts : int array;
  tally : Event.tally;
  mutable subscribers : ('m Event.t -> unit) list;  (* registration order *)
  mutable halted : bool;
}

let graph t = t.topology.Topology.graph

let time t = t.now

let node_state t v = Gcn.Instance.state t.instances.(v)

let node_fire_counts t v = Gcn.Instance.fire_counts t.instances.(v)

let node_failed t v = t.failed.(v)

let counters t = Event.snapshot t.tally

let broadcasts_by_node t = Array.copy t.broadcasts

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let emit t ev =
  Event.record t.tally ev;
  List.iter (fun f -> f ev) t.subscribers

let stop t = t.halted <- true

let enqueue t ~at ev =
  t.queue <- Queue_by_time.add (at, t.next_seq) ev t.queue;
  t.next_seq <- t.next_seq + 1

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine_spec.schedule: time is in the past";
  enqueue t ~at (Callback f)

let generation t node timer =
  Option.value ~default:0
    (Hashtbl.find_opt t.generations (node, Gcn.Timer.name timer))

let bump t node timer =
  let g = generation t node timer + 1 in
  Hashtbl.replace t.generations (node, Gcn.Timer.name timer) g;
  g

let distance t u v =
  let x1, y1 = t.topology.Topology.positions.(u)
  and x2, y2 = t.topology.Topology.positions.(v) in
  sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

let edge u v = (min u v, max u v)

(* The fault layer, drawn only after the base link model delivered: the
   edge's extra loss first; only if that spares the reception, the
   network-wide loss. *)
let fault_dropped t u v =
  (match Hashtbl.find_opt t.link_loss (edge u v) with
  | Some p -> Rng.bernoulli t.rng p
  | None -> false)
  || (t.global_loss > 0.0 && Rng.bernoulli t.rng t.global_loss)

(* A transmission logged at [time] can only overlap receptions of
   transmissions sent within [airtime] of it, and every reception still to
   come carries one sent no earlier than [now - propagation_delay]. *)
let log_transmission t sender =
  match t.airtime with
  | None -> ()
  | Some airtime ->
    Queue.add (t.now, sender) t.transmissions;
    let horizon = t.now -. airtime -. (2.0 *. propagation_delay) in
    while
      (not (Queue.is_empty t.transmissions))
      && fst (Queue.peek t.transmissions) < horizon
    do
      ignore (Queue.pop t.transmissions)
    done

let jammed t ~node ~sender ~sent =
  match t.airtime with
  | None -> false
  | Some airtime ->
    Queue.fold
      (fun acc (time, other) ->
        acc
        || other <> sender
           && abs_float (time -. sent) < airtime
           && (other = node || Graph.mem_edge (graph t) node other))
      false t.transmissions

let rec apply t node effects = List.iter (apply_one t node) effects

and apply_one t node = function
  | Gcn.Broadcast msg ->
    t.broadcasts.(node) <- t.broadcasts.(node) + 1;
    log_transmission t node;
    emit t (Event.Broadcast { time = t.now; sender = node; msg });
    Array.iter
      (fun v ->
        if
          Link_model.delivered t.link t.rng ~distance_m:(distance t node v)
          && not (fault_dropped t node v)
        then
          enqueue t
            ~at:(t.now +. propagation_delay)
            (Arrive { node = v; sender = node; sent = t.now; msg })
        else
          emit t
            (Event.Drop { time = t.now; node = v; sender = node; collision = false }))
      (Graph.neighbours (graph t) node)
  | Gcn.Set_timer { timer; after } ->
    let generation = bump t node timer in
    enqueue t ~at:(t.now +. after) (Fire { node; timer; generation })
  | Gcn.Stop_timer timer -> ignore (bump t node timer)

let inject t ~node trigger =
  if not t.failed.(node) then
    apply t node (Gcn.Instance.deliver t.instances.(node) trigger)

let process t = function
  | Fire { node; timer; generation = g } ->
    if g = generation t node timer then begin
      emit t
        (Event.Timer_fire { time = t.now; node; timer = Gcn.Timer.name timer });
      inject t ~node (Gcn.Timeout timer)
    end
  | Arrive { node; sender; sent; msg } ->
    if jammed t ~node ~sender ~sent then
      emit t (Event.Drop { time = t.now; node; sender; collision = true })
    else begin
      emit t (Event.Delivery { time = t.now; node; sender; msg });
      inject t ~node (Gcn.Receive { sender; msg })
    end
  | Callback f -> f t

let run_until t deadline =
  let rec loop () =
    if not t.halted then
      match Queue_by_time.min_binding_opt t.queue with
      | Some (((at, _) as key), ev) when at <= deadline ->
        t.queue <- Queue_by_time.remove key t.queue;
        t.now <- at;
        process t ev;
        loop ()
      | Some _ | None -> t.now <- Float.max t.now deadline
  in
  loop ()

let fail_node t v =
  if not t.failed.(v) then begin
    t.failed.(v) <- true;
    Hashtbl.filter_map_inplace
      (fun (node, _) g -> Some (if node = v then g + 1 else g))
      t.generations;
    emit t (Event.Node_failed { time = t.now; node = v })
  end

let revive_node t v =
  if t.failed.(v) then begin
    t.failed.(v) <- false;
    let instance, effects = Gcn.Instance.create (t.program ~self:v) ~self:v in
    t.instances.(v) <- instance;
    emit t (Event.Node_revived { time = t.now; node = v });
    apply t v effects
  end

let clamp p = Float.min 1.0 (Float.max 0.0 p)

let set_link_loss t ~a ~b p =
  let p = clamp p in
  if p > 0.0 then Hashtbl.replace t.link_loss (edge a b) p
  else Hashtbl.remove t.link_loss (edge a b);
  let a, b = edge a b in
  emit t (Event.Link_changed { time = t.now; a; b; loss = p })

let set_global_loss t p =
  t.global_loss <- clamp p;
  emit t (Event.Link_changed { time = t.now; a = -1; b = -1; loss = t.global_loss })

let create ?airtime ~topology ~link ~rng ~program () =
  let n = Graph.n topology.Topology.graph in
  let boot =
    Array.init n (fun v -> Gcn.Instance.create (program ~self:v) ~self:v)
  in
  let t =
    {
      topology;
      link;
      airtime;
      rng;
      program;
      instances = Array.map fst boot;
      queue = Queue_by_time.empty;
      next_seq = 0;
      now = 0.0;
      generations = Hashtbl.create 64;
      transmissions = Queue.create ();
      link_loss = Hashtbl.create 8;
      global_loss = 0.0;
      failed = Array.make n false;
      broadcasts = Array.make n 0;
      tally = Event.tally_create ();
      subscribers = [];
      halted = false;
    }
  in
  Array.iteri (fun v (_, effects) -> apply t v effects) boot;
  t
