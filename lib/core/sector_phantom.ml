(* PSSPR-style sector phantom routing (Chen et al.).

   Same two-phase shape as [Phantom] — a directed random walk to a phantom
   source, then a flood — but the walk direction is not a uniformly random
   compass bearing: the source partitions the plane around itself into
   [num_sectors] angular sectors, excludes the sector facing the sink and
   its two neighbours, and aims each message's walk at a uniformly chosen
   remaining sector.  Walks therefore never head back towards the sink's
   patrol ground, which is the property PSSPR trades message latency for.

   The walk/flood machinery deliberately mirrors [Phantom] (same timers,
   same hop-delay forwarding, same sink-delivery dedup) so that capture
   differences between the two families are attributable to the direction
   policy alone. *)

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

type config = {
  sink : int;
  source : int;
  walk_length : int;
  num_sectors : int;
  positions : (float * float) array;
  source_period : float;
  hop_delay : float;
  start_time : float;
  run_seed : int;
}

let default_config ~topology ~walk_length =
  {
    sink = topology.Slpdas_wsn.Topology.sink;
    source = topology.Slpdas_wsn.Topology.source;
    walk_length;
    num_sectors = 8;
    positions = topology.Slpdas_wsn.Topology.positions;
    source_period = 5.5;
    hop_delay = 0.02;
    start_time = 5.0;
    run_seed = 1;
  }

type msg =
  | Hello
  | Walk of { id : int; ttl : int; target : int; dir : float * float }
  | Flood of { id : int }

let message_id = function
  | Hello -> None
  | Walk { id; _ } -> Some id
  | Flood { id } -> Some id

type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  neighbours : Int_set.t;
  seen : Int_set.t;
  walk_from : int Int_map.t;
  pending_walks : (int * int * (float * float)) Int_map.t;
  next_id : int;
  received : int list;
  hello_remaining : int;
}

let sink_received s = List.rev s.received

let deliver_at_sink s id =
  if Int_set.mem id s.seen then s
  else { s with seen = Int_set.add id s.seen; received = id :: s.received }

let hello_timer = Slpdas_gcn.Timer.intern "hello"
let gen_timer = Slpdas_gcn.Timer.intern "gen"
let walk_timer id = Slpdas_gcn.Timer.intern ("walk-" ^ string_of_int id)
let flood_timer id = Slpdas_gcn.Timer.intern ("fwd-" ^ string_of_int id)

let start_flood s id =
  ( { s with seen = Int_set.add id s.seen },
    [ Slpdas_gcn.Set_timer { timer = flood_timer id; after = s.config.hop_delay } ]
  )

let advances s ~self ~dir v =
  let x0, y0 = s.config.positions.(self) in
  let x1, y1 = s.config.positions.(v) in
  let dx, dy = dir in
  ((x1 -. x0) *. dx) +. ((y1 -. y0) *. dy) > 1e-9

let choose_next_hop s ~self ~id ~dir =
  let without_prev =
    match Int_map.find_opt id s.walk_from with
    | Some prev -> Int_set.remove prev s.neighbours
    | None -> s.neighbours
  in
  let preferred =
    Int_set.elements (Int_set.filter (advances s ~self ~dir) without_prev)
  in
  let fallback = Int_set.elements without_prev in
  match (preferred, fallback) with
  | p :: ps, _ -> Some (Slpdas_util.Rng.choose s.rng (p :: ps))
  | [], f :: fs -> Some (Slpdas_util.Rng.choose s.rng (f :: fs))
  | [], [] ->
    begin match Int_set.elements s.neighbours with
    | [] -> None
    | all -> Some (Slpdas_util.Rng.choose s.rng all)
    end

let continue_walk s ~self ~id ~ttl ~dir =
  if ttl <= 0 then start_flood s id
  else begin
    match choose_next_hop s ~self ~id ~dir with
    | None -> start_flood s id
    | Some next ->
      ( {
          s with
          pending_walks = Int_map.add id (next, ttl - 1, dir) s.pending_walks;
        },
        [ Slpdas_gcn.Set_timer { timer = walk_timer id; after = s.config.hop_delay } ]
      )
  end

(* The PSSPR direction policy: sector index of the sink as seen from
   [self], the three sectors centred on it excluded, a uniform choice
   among the rest, and a uniform angle within the chosen sector. *)
let sector_direction s ~self =
  let num = s.config.num_sectors in
  let width = 2.0 *. Float.pi /. Float.of_int num in
  let x, y = s.config.positions.(self) in
  let sx, sy = s.config.positions.(s.config.sink) in
  let sink_angle = atan2 (sy -. y) (sx -. x) in
  let sink_sector =
    let i = int_of_float (Float.floor ((sink_angle +. Float.pi) /. width)) in
    ((i mod num) + num) mod num
  in
  let blocked i =
    num > 3
    && (i = sink_sector
       || i = (sink_sector + 1) mod num
       || i = (sink_sector + num - 1) mod num)
  in
  let allowed = ref [] in
  for i = num - 1 downto 0 do
    if not (blocked i) then allowed := i :: !allowed
  done;
  let sec =
    match !allowed with
    | [] -> sink_sector  (* degenerate sector counts: no exclusion *)
    | xs -> Slpdas_util.Rng.choose s.rng xs
  in
  let angle =
    (Float.of_int sec *. width) -. Float.pi
    +. Slpdas_util.Rng.float s.rng width
  in
  (cos angle, sin angle)

let on_generate ~self s =
  let id = s.next_id in
  let s = { s with next_id = id + 1 } in
  let rearm =
    Slpdas_gcn.Set_timer { timer = gen_timer; after = s.config.source_period }
  in
  let dir = sector_direction s ~self in
  let s, effects =
    if s.config.walk_length <= 0 then start_flood s id
    else continue_walk s ~self ~id ~ttl:s.config.walk_length ~dir
  in
  (s, effects @ [ rearm ])

let on_receive ~self s ~sender msg =
  match msg with
  | Hello -> ({ s with neighbours = Int_set.add sender s.neighbours }, [])
  | Walk { id; ttl; target; dir } ->
    if self <> target then (s, [])
    else begin
      let s = { s with walk_from = Int_map.add id sender s.walk_from } in
      let s = if self = s.config.sink then deliver_at_sink s id else s in
      continue_walk s ~self ~id ~ttl ~dir
    end
  | Flood { id } ->
    if Int_set.mem id s.seen then (s, [])
    else if self = s.config.sink then (deliver_at_sink s id, [])
    else start_flood s id

let on_timeout ~self:_ s timer =
  let name = Slpdas_gcn.Timer.name timer in
  match String.index_opt name '-' with
  | None -> None
  | Some i ->
    let id = int_of_string (String.sub name (i + 1) (String.length name - i - 1)) in
    if String.length name > 4 && String.sub name 0 4 = "walk" then begin
      match Int_map.find_opt id s.pending_walks with
      | None -> Some (s, [])
      | Some (target, ttl, dir) ->
        Some
          ( { s with pending_walks = Int_map.remove id s.pending_walks },
            [ Slpdas_gcn.Broadcast (Walk { id; ttl; target; dir }) ] )
    end
    else Some (s, [ Slpdas_gcn.Broadcast (Flood { id }) ])

let program config ~self:_ =
  let init ~self =
    let rng =
      Slpdas_util.Rng.create
        ((config.run_seed * 48_271) lxor (self * 69_621) lxor 0x5ec7)
    in
    let s =
      {
        config;
        rng;
        neighbours = Int_set.empty;
        seen = Int_set.empty;
        walk_from = Int_map.empty;
        pending_walks = Int_map.empty;
        next_id = 0;
        received = [];
        hello_remaining = 3;
      }
    in
    let effects =
      [ Slpdas_gcn.Set_timer { timer = hello_timer; after = 0.5 } ]
      @
      if self = config.source then
        [ Slpdas_gcn.Set_timer { timer = gen_timer; after = config.start_time } ]
      else []
    in
    (s, effects)
  in
  let actions =
    [
      Slpdas_gcn.on_timeout "hello" hello_timer (fun ~self:_ s ->
          if s.hello_remaining <= 0 then None
          else
            Some
              ( { s with hello_remaining = s.hello_remaining - 1 },
                Slpdas_gcn.Broadcast Hello
                ::
                (if s.hello_remaining > 1 then
                   [ Slpdas_gcn.Set_timer { timer = hello_timer; after = 1.0 } ]
                 else []) ));
      Slpdas_gcn.on_timeout "generate" gen_timer (fun ~self s ->
          Some (on_generate ~self s));
      Slpdas_gcn.on_any_timeout "forward" on_timeout;
      Slpdas_gcn.on_receive "receive" (fun ~self s ~sender msg ->
          Some (on_receive ~self s ~sender msg));
    ]
  in
  { Slpdas_gcn.init; actions; spontaneous = [] }
