type result = {
  refined : Schedule.t;
  search_path : int list;
  start_node : int;
  change_path : int list;
}

module Int_set = Set.Make (Int)

let choose rng = function
  | [] -> None
  | candidates ->
    begin match rng with
    | None -> Some (List.fold_left min (List.hd candidates) candidates)
    | Some r -> Some (Slpdas_util.Rng.choose r candidates)
    end

(* Children of [v] in the aggregation tree built by Phase 1. *)
let children parent v =
  let acc = ref [] in
  Array.iteri (fun u p -> if p = Some v then acc := u :: !acc) parent;
  List.rev !acc

let slot_view schedule ~delta v =
  if v = Schedule.sink schedule then Some delta else Schedule.slot schedule v

(* min{Ninfo[j].slot | j ∈ myN} ∪ {slot}: the audible slot floor around
   [v]. *)
let neighbourhood_min g schedule ~delta v =
  let candidates =
    List.filter_map
      (slot_view schedule ~delta)
      (v :: Slpdas_wsn.Graph.neighbour_list g v)
  in
  match candidates with
  | [] -> None
  | x :: rest -> Some (List.fold_left min x rest)

let min_slot_child schedule parent v =
  children parent v
  |> List.filter_map (fun c ->
         Option.map (fun s -> (s, c)) (Schedule.slot schedule c))
  |> List.sort Slpdas_util.Order.int_pair
  |> function
  | [] -> None
  | (_, c) :: _ -> Some c

let refine ?rng ?(gap = 1) g ~das ~search_distance ~change_length =
  if search_distance < 1 then invalid_arg "Slp_refine: search_distance < 1";
  if change_length < 1 then invalid_arg "Slp_refine: change_length < 1";
  if gap < 1 then invalid_arg "Slp_refine: gap < 1";
  let delta = Das_build.default_delta in
  let schedule = Schedule.copy das.Das_build.schedule in
  let parent = das.Das_build.parent in
  let sink = Schedule.sink schedule in
  (* Phase 2: descend minimum-slot children for [search_distance] hops. *)
  let rec descend cur remaining visited path =
    if remaining = 0 then Some (cur, visited, path)
    else begin
      let next =
        match min_slot_child schedule parent cur with
        | Some c -> Some c
        | None ->
          (* No children: lowest-slotted neighbour off the path. *)
          Slpdas_wsn.Graph.neighbour_list g cur
          |> List.filter (fun v ->
                 (not (Int_set.mem v visited)) && Some v <> parent.(cur))
          |> List.filter_map (fun v ->
                 Option.map (fun s -> (s, v)) (Schedule.slot schedule v))
          |> List.sort Slpdas_util.Order.int_pair
          |> (function [] -> None | (_, v) :: _ -> Some v)
      in
      match next with
      | None -> None
      | Some next ->
        descend next (remaining - 1) (Int_set.add next visited) (next :: path)
    end
  in
  let alternates visited v =
    Slpdas_wsn.Graph.shortest_path_parents g ~dist:das.Das_build.hop v
    |> List.filter (fun p -> Some p <> parent.(v) && not (Int_set.mem p visited))
  in
  (* After [search_distance] hops, keep forwarding until some node has an
     alternate potential parent (the ttl = 0 branch of Fig. 3). *)
  let rec find_start cur visited path fuel =
    if fuel = 0 then None
    else if alternates visited cur <> [] then Some (cur, visited, path)
    else begin
      (* Fig. 3's ttl = 0 forwarding: a child if any, else a non-parent
         neighbour.  Prefer unvisited nodes so the deterministic mode does
         not ricochet; fall back to visited ones (the figure permits it)
         under the fuel bound. *)
      let unvisited = List.filter (fun c -> not (Int_set.mem c visited)) in
      let neighbours_pool =
        Slpdas_wsn.Graph.neighbour_list g cur
        |> List.filter (fun v -> Some v <> parent.(cur))
      in
      let pool =
        match unvisited (children parent cur) with
        | [] ->
          begin match unvisited neighbours_pool with
          | [] -> neighbours_pool
          | vs -> vs
          end
        | cs -> cs
      in
      match choose rng pool with
      | None -> None
      | Some next ->
        find_start next (Int_set.add next visited) (next :: path) (fuel - 1)
    end
  in
  match descend sink search_distance (Int_set.singleton sink) [ sink ] with
  | None -> None
  | Some (reached, visited, path) ->
    begin match
      find_start reached visited path (Slpdas_wsn.Graph.n g)
    with
    | None -> None
    | Some (start_node, visited, path) ->
      let search_path = List.rev path in
      (* Phase 3: walk the decoy chain. *)
      begin match choose rng (alternates visited start_node) with
      | None -> None
      | Some first_target ->
        let changed = ref [] in
        let rec chain cur target visited remaining =
          match neighbourhood_min g schedule ~delta cur with
          | None -> ()
          | Some base ->
            Schedule.assign schedule target (base - gap);
            changed := target :: !changed;
            let visited = Int_set.add target visited in
            if remaining > 1 then begin
              let pool =
                Slpdas_wsn.Graph.neighbour_list g target
                |> List.filter (fun v ->
                       (not (Int_set.mem v visited))
                       && Some v <> parent.(target)
                       && v <> sink)
              in
              match choose rng pool with
              | None -> ()
              | Some next -> chain target next visited (remaining - 1)
            end
        in
        chain start_node first_target visited change_length;
        let change_path = List.rev !changed in
        let pinned =
          let set = Int_set.of_list change_path in
          fun v -> Int_set.mem v set
        in
        let salt =
          match rng with
          | None -> 0
          | Some r -> 1 + Slpdas_util.Rng.int r 0x3FFF_FFFF
        in
        Das_build.repair ~salt g ~schedule ~parent ~pinned;
        (* Weak repair never moves a pinned decoy, so one can be left with
           every neighbour transmitting earlier (Def. 3, condition 3).
           Unpinned nodes are the repair's to fix, so only decoys can carry
           a violation: release those that do and repair once more.  A
           sound repair is left untouched. *)
        (match
           List.filter (fun v -> not (Das_check.weak_at g schedule v)) change_path
         with
        | [] -> ()
        | defective ->
          let released = Int_set.of_list defective in
          Das_build.repair ~salt g ~schedule ~parent
            ~pinned:(fun v -> pinned v && not (Int_set.mem v released)));
        Some { refined = schedule; search_path; start_node; change_path }
      end
    end
