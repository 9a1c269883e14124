(* One observation interface, four adversaries.

   Every class consumes the same observation — a [Broadcast] seen as
   [(time, sender, message id)] — through {!step}, whether the events come
   live off an engine bus ({!attach}) or as a pure fold over a recorded
   stream ({!fold}).  The [Local] step is a line-for-line port of the
   original hard-coded panda hunter so its traces stay bit-identical;
   the other classes extend the same skeleton: act at most once per message
   id (the [acted] table is the shared, mergeable observation history), move
   at most one hop per observation, record the capture time on reaching the
   source. *)

module Graph = Slpdas_wsn.Graph

type local_s = { mutable l_loc : int }

type global_s = {
  mutable g_loc : int;
  mutable g_estimate : int;  (* -1 until the first observation fixes it *)
  mutable g_dist : int array;  (* BFS distances from [g_estimate] *)
}

type coop_s = { c_locs : int array }

type sector_s = {
  mutable x_loc : int;
  x_origin : float * float;  (* patrol reference point (start position) *)
  x_activity : float array;  (* transmissions heard per angular sector *)
}

type state =
  | S_local of local_s
  | S_global of global_s
  | S_coop of coop_s
  | S_sector of sector_s

type t = {
  graph : Graph.t;
  positions : (float * float) array;
  source : int;
  acted : (int, unit) Hashtbl.t;
  mutable path_rev : int list;
  mutable capture_time : float option;
  state : state;
}

type move = { from_node : int; to_node : int }

type verdict = { location : int; path : int list; capture_time : float option }

let sectors = 8

let sector_index ~origin:(ox, oy) (x, y) =
  let angle = atan2 (y -. oy) (x -. ox) in
  let idx =
    int_of_float
      (Float.of_int sectors *. (angle +. Float.pi) /. (2. *. Float.pi))
  in
  if idx < 0 then 0 else if idx >= sectors then sectors - 1 else idx

let create cls ~graph ~positions ~start ~source ~seed =
  let state =
    match cls with
    | Model.Local -> S_local { l_loc = start }
    | Model.Global -> S_global { g_loc = start; g_estimate = -1; g_dist = [||] }
    | Model.Coop k ->
      S_coop { c_locs = Model.placements ~n:(Graph.n graph) ~start ~seed k }
    | Model.Sector_phantom ->
      let origin =
        if start >= 0 && start < Array.length positions then positions.(start)
        else (0., 0.)
      in
      S_sector
        { x_loc = start; x_origin = origin; x_activity = Array.make sectors 0. }
  in
  {
    graph;
    positions;
    source;
    acted = Hashtbl.create 64;
    path_rev = [ start ];
    capture_time = None;
    state;
  }

let audible t loc sender = sender = loc || Graph.mem_edge t.graph loc sender

(* Record a one-hop move of a walker standing at [from_node] to [sender];
   every class funnels through here so path and capture accounting agree. *)
let record_move t ~time ~from_node to_node =
  t.path_rev <- to_node :: t.path_rev;
  if to_node = t.source then t.capture_time <- Some time;
  Some { from_node; to_node }

let step_local t s ~time ~sender ~id =
  match id with
  | Some id when (not (Hashtbl.mem t.acted id)) && audible t s.l_loc sender ->
    Hashtbl.add t.acted id ();
    if sender <> s.l_loc then begin
      let from_node = s.l_loc in
      s.l_loc <- sender;
      record_move t ~time ~from_node sender
    end
    else None
  | Some _ | None -> None

let step_global t g ~time ~sender ~id =
  match id with
  | None -> None
  | Some _ ->
    if g.g_estimate < 0 then begin
      (* First transmission heard anywhere: its sender is the timing-based
         source estimate and never changes. *)
      g.g_estimate <- sender;
      g.g_dist <- Graph.bfs_distances t.graph sender
    end;
    if g.g_loc = g.g_estimate || g.g_dist.(g.g_loc) < 0 then None
    else begin
      (* One hop along the lexicographically-least shortest path: the
         lowest-id neighbour strictly closer to the estimate (neighbour
         arrays are sorted). *)
      let d = g.g_dist.(g.g_loc) in
      let next = ref (-1) in
      Array.iter
        (fun nb -> if !next < 0 && g.g_dist.(nb) = d - 1 then next := nb)
        (Graph.neighbours t.graph g.g_loc);
      if !next < 0 then None
      else begin
        let from_node = g.g_loc in
        g.g_loc <- !next;
        record_move t ~time ~from_node !next
      end
    end

let step_coop t c ~time ~sender ~id =
  match id with
  | Some id when not (Hashtbl.mem t.acted id) ->
    (* The first walker (index order) able to hear the sender acts; the
       message id is then burned for every walker (shared history). *)
    let k = Array.length c.c_locs in
    let rec first i =
      if i >= k then None
      else if audible t c.c_locs.(i) sender then Some i
      else first (i + 1)
    in
    (match first 0 with
    | None -> None
    | Some i ->
      Hashtbl.add t.acted id ();
      if sender = c.c_locs.(i) then None
      else begin
        let from_node = c.c_locs.(i) in
        c.c_locs.(i) <- sender;
        record_move t ~time ~from_node sender
      end)
  | Some _ | None -> None

let step_sector t x ~time ~sender ~id =
  match id with
  | None -> None
  | Some id when audible t x.x_loc sender ->
    if sender >= 0 && sender < Array.length t.positions then begin
      let sx = sector_index ~origin:x.x_origin t.positions.(sender) in
      x.x_activity.(sx) <- x.x_activity.(sx) +. 1.
    end;
    if not (Hashtbl.mem t.acted id) then begin
      Hashtbl.add t.acted id ();
      if sender <> x.x_loc then begin
        let from_node = x.x_loc in
        x.x_loc <- sender;
        record_move t ~time ~from_node sender
      end
      else None
    end
    else if Array.length t.positions = 0 then None
    else begin
      (* Stale message: patrol one hop towards the hottest sector.  The
         target direction is the sector-centre unit vector; the neighbour
         with the strictly largest progress along it wins, ties to the
         lowest node id (strict [>] over sorted neighbours). *)
      let hot = ref 0 in
      for i = 1 to sectors - 1 do
        if x.x_activity.(i) > x.x_activity.(!hot) then hot := i
      done;
      let centre =
        ((Float.of_int !hot +. 0.5) *. 2. *. Float.pi /. Float.of_int sectors)
        -. Float.pi
      in
      let dx, dy = (cos centre, sin centre) in
      let lx, ly = t.positions.(x.x_loc) in
      let best = ref (-1) and best_score = ref 0. in
      Array.iter
        (fun nb ->
          let nx, ny = t.positions.(nb) in
          let score = (dx *. (nx -. lx)) +. (dy *. (ny -. ly)) in
          if score > !best_score then begin
            best := nb;
            best_score := score
          end)
        (Graph.neighbours t.graph x.x_loc);
      if !best < 0 then None
      else begin
        let from_node = x.x_loc in
        x.x_loc <- !best;
        record_move t ~time ~from_node !best
      end
    end
  | Some _ -> None

let step (t : t) ~time ~sender ~id =
  if t.capture_time <> None then None
  else
    match t.state with
    | S_local s -> step_local t s ~time ~sender ~id
    | S_global g -> step_global t g ~time ~sender ~id
    | S_coop c -> step_coop t c ~time ~sender ~id
    | S_sector x -> step_sector t x ~time ~sender ~id

let location (t : t) =
  match t.state with
  | S_local s -> s.l_loc
  | S_global g -> g.g_loc
  | S_coop c -> (
    (* The most recently moved walker's position heads the path; before any
       move, walker 0's. *)
    match t.path_rev with
    | p :: _ :: _ -> p
    | _ -> c.c_locs.(0))
  | S_sector x -> x.x_loc

let path (t : t) = List.rev t.path_rev
let capture_time (t : t) = t.capture_time
let captured (t : t) = t.capture_time <> None

let verdict (t : t) =
  { location = location t; path = path t; capture_time = t.capture_time }

let attach cls ~start ~source ~seed ~message_id engine =
  let topo = Slpdas_sim.Engine.topology engine in
  let t =
    create cls
      ~graph:topo.Slpdas_wsn.Topology.graph
      ~positions:topo.Slpdas_wsn.Topology.positions ~start ~source ~seed
  in
  Slpdas_sim.Engine.subscribe engine (function
    | Slpdas_sim.Event.Broadcast { time; sender; msg } -> (
      match step t ~time ~sender ~id:(message_id msg) with
      | Some { from_node; to_node } ->
        Slpdas_sim.Engine.emit engine
          (Slpdas_sim.Event.Attacker_move { time; from_node; to_node });
        if t.capture_time <> None then Slpdas_sim.Engine.stop engine
      | None -> ())
    | _ -> ());
  t

let fold cls ~graph ~positions ~start ~source ~seed ~message_id stream =
  let t = create cls ~graph ~positions ~start ~source ~seed in
  Array.iter
    (fun ev ->
      match ev with
      | Slpdas_sim.Event.Broadcast { time; sender; msg }
        when t.capture_time = None ->
        ignore (step t ~time ~sender ~id:(message_id msg))
      | _ -> ())
    stream;
  verdict t
