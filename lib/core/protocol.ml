module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

type mode = Protectionless | Slp

type config = {
  mode : mode;
  sink : int;
  num_slots : int;
  slot_period : float;
  dissemination_period : float;
  neighbour_discovery_periods : int;
  minimum_setup_periods : int;
  dissemination_timeout : int;
  search_distance : int;
  change_length : int;
  refine_gap : int;
  search_start_period : int;
  run_seed : int;
  data_sources : int list;
  reliable_data : bool;
}

let period_length c = float_of_int c.num_slots *. c.slot_period

let das_start c = float_of_int c.neighbour_discovery_periods *. period_length c

let normal_start c = float_of_int c.minimum_setup_periods *. period_length c

(* Number of dissemination rounds between the start of Phase 1 and normal
   operation. *)
let setup_rounds c =
  int_of_float (ceil ((normal_start c -. das_start c) /. c.dissemination_period))

(* Rounds during which self-repair enforces the strong DAS bound: up to the
   period at which the sink launches Phase 2. *)
let strong_repair_rounds c =
  let span =
    (float_of_int c.search_start_period *. period_length c) -. das_start c
  in
  int_of_float (ceil (span /. c.dissemination_period))

type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  neighbours : Int_set.t;
  npar : Int_set.t;
  children : Int_set.t;
  others : Int_set.t Int_map.t;
  ninfo : Messages.ninfo Int_map.t;
  unassigned_seen : Int_set.t;
  hop : int option;
  parent : int option;
  slot : int option;
  normal : bool;
  dissem_budget : int;
  last_sent : Messages.t option;
  dissem_rounds_left : int;
  process_rounds_left : int;
  search_sent : bool;
  from_ : Int_set.t;
  start_node : bool;
  pr : int;
  hello_remaining : int;
  data_seq : int;
  period_index : int;
  pending_readings : (int * int) list;
      (** readings collected since our last transmission, newest first *)
  awaiting_ack : (int * int) list;
      (** reliable mode: readings transmitted but not yet overheard in the
          parent's aggregate *)
  delivered : (int * int * int) list;
      (** sink only: (source, generation period, arrival period) *)
}

let slot_of_state s = s.slot

(* Typed equality helpers for the hot path (the [poly-eq] lint scope). *)
let is_slp c = match c.mode with Slp -> true | Protectionless -> false

let is_some_of v = function Some x -> Int.equal x v | None -> false

module Timer = struct
  let hello = Slpdas_gcn.Timer.intern "hello"
  let dissem = Slpdas_gcn.Timer.intern "dissem"
  let process = Slpdas_gcn.Timer.intern "process"
  let search = Slpdas_gcn.Timer.intern "search"
  let period = Slpdas_gcn.Timer.intern "period"
  let tx = Slpdas_gcn.Timer.intern "tx"
end

(* Per-node, per-round dissemination jitter: staggers the round's broadcasts
   so they do not all hit the channel at the same instant (needed when the
   engine models transmission airtime; harmless otherwise).  Derived from a
   stateless hash so it does not perturb the per-node random streams. *)
let[@inline] dissem_jitter c ~node ~round =
  Slpdas_util.Rng.float_of_seed
    ((c.run_seed * 31) lxor (node * 2_097_593) lxor (round * 613))
    (0.3 *. c.dissemination_period)

(* Run-salted deterministic hash: gives every (parent, child) pair a
   pseudo-random rank key that all siblings compute identically, standing in
   for the arrival-order noise that randomises ranks in the paper's TOSSIM
   runs. *)
let rank_key ~seed ~parent ~node =
  Int64.to_int
    (Int64.logand
       (Slpdas_util.Rng.bits64_of_seed
          ((seed * 1_000_003) lxor (parent * 8191) lxor (node * 131)))
       0x3FFFFFFFFFFFFFFFL)

let ninfo_slot s v =
  match Int_map.find_opt v s.ninfo with
  | Some { Messages.slot; _ } -> Some slot
  | None -> None

let ninfo_hop s v =
  match Int_map.find_opt v s.ninfo with
  | Some { Messages.hop; _ } -> Some hop
  | None -> None

(* min{Ninfo[j].slot | j ∈ myN} ∪ {slot}: the neighbourhood slot floor used
   by Phase 3 (Figs. 3–4). *)
let neighbourhood_min_slot s =
  let candidates =
    Int_set.fold
      (fun v acc -> match ninfo_slot s v with Some x -> x :: acc | None -> acc)
      s.neighbours
      (match s.slot with Some x -> [ x ] | None -> [])
  in
  match candidates with
  | [] -> None
  | x :: rest -> Some (List.fold_left min x rest)

(* Monotone merge of received Ninfo: slots only ever decrease in this
   protocol (collision resolution, updates, refinement), so "lowest slot
   wins" keeps the freshest view; hop is set once by the owner.

   The one exception is the sender's entry about *itself*: that is the
   owner's current announcement, so it replaces ours outright.  In the
   fault-free run the two rules coincide (owners never raise a slot and
   never change their hop), but orphan repair re-anchors nodes onto new
   parents, changing their hop and re-assigning their slot.  Folding such
   an owner announcement through the monotone rule would keep the stale
   hop, and inconsistent hop views are what feed the strong-repair rule
   ("stay below every hop-1-closer neighbour") cyclic "closer" relations —
   two nodes each believing the other closer chase each other's slots down
   without bound.  With owner-consistent hops any such cycle needs
   h(a) < h(b) < ... < h(a), which is impossible. *)
let merge_info s ~sender info =
  List.fold_left
    (fun (ninfo, unassigned) (v, entry) ->
      match entry with
      | None -> (ninfo, Int_set.add v unassigned)
      | Some (incoming : Messages.ninfo) ->
        let merged =
          if v = sender then incoming
          else
            match Int_map.find_opt v ninfo with
            | None -> incoming
            | Some existing ->
              { existing with Messages.slot = min existing.Messages.slot incoming.Messages.slot }
        in
        (Int_map.add v merged ninfo, unassigned))
    (s.ninfo, s.unassigned_seen)
    info

let set_self_info ~self s =
  match (s.hop, s.slot) with
  | Some hop, Some slot ->
    { s with ninfo = Int_map.add self { Messages.hop; slot } s.ninfo }
  | Some hop, None when self = s.config.sink ->
    {
      s with
      ninfo = Int_map.add self { Messages.hop; slot = s.config.num_slots } s.ninfo;
    }
  | _ -> s

(* ------------------------------------------------------------------ *)
(* Dissemination payload                                              *)
(* ------------------------------------------------------------------ *)

let dissem_payload ~self s =
  let entries =
    List.map
      (fun v -> (v, Int_map.find_opt v s.ninfo))
      (Int_set.elements s.neighbours)
  in
  let self_entry = (self, Int_map.find_opt self s.ninfo) in
  Messages.Dissem { normal = s.normal; info = entries @ [ self_entry ]; parent = s.parent }

let ninfo_equal (a : Messages.ninfo) (b : Messages.ninfo) =
  Int.equal a.Messages.hop b.Messages.hop && Int.equal a.Messages.slot b.Messages.slot

(* [sent_is_current ~self s] holds when [s.last_sent] is exactly the payload
   [dissem_payload ~self s] would build now.  Walks the state against the
   sent message instead of building a fresh payload to compare. *)
let sent_is_current ~self s =
  let entry_current (v, e) w =
    Int.equal v w && Option.equal ninfo_equal e (Int_map.find_opt w s.ninfo)
  in
  match s.last_sent with
  | Some (Messages.Dissem { normal; info; parent }) ->
    Bool.equal normal s.normal
    && Option.equal Int.equal parent s.parent
    &&
    (* [info] lists the neighbours in ascending order, then [self]. *)
    begin match
      Int_set.fold
        (fun v rest ->
          match rest with
          | e :: tl when entry_current e v -> tl
          | _ -> raise_notrace Exit)
        s.neighbours info
    with
    | [ e ] -> entry_current e self
    | _ -> false
    | exception Exit -> false
    end
  | Some
      ( Messages.Hello | Messages.Search _ | Messages.Change _ | Messages.Data _
      | Messages.Neighbour_down _ | Messages.Release _ )
  | None ->
    false

(* ------------------------------------------------------------------ *)
(* Receive handlers                                                   *)
(* ------------------------------------------------------------------ *)

let on_hello ~self:_ s ~sender =
  { s with neighbours = Int_set.add sender s.neighbours }

let common_dissem_update ~self s ~sender ~info ~sender_parent =
  let s = { s with neighbours = Int_set.add sender s.neighbours } in
  let children =
    match sender_parent with
    | Some p when Int.equal p self -> Int_set.add sender s.children
    | Some _ -> Int_set.remove sender s.children
    | None -> s.children
  in
  let ninfo, unassigned_seen = merge_info s ~sender info in
  (* A sender advertising *itself* as ⊥ has dropped its assignment (orphan
     repair; see [on_neighbour_down]).  The monotone merge above cannot
     express that — slots only ever decrease — so trust the owner and purge
     our stale record: its old slot must not seed [choose_parent_and_slot]
     again, and the payload change this causes is what re-arms our own
     dissemination budget so converged nodes answer the orphan's ⊥
     announcement.  Third-party [None] entries (neighbours the sender merely
     has not heard from) are still only recorded in [unassigned_seen]. *)
  let sender_unassigned =
    List.exists (fun (v, e) -> v = sender && Option.is_none e) info
  in
  let ninfo = if sender_unassigned then Int_map.remove sender ninfo else ninfo in
  let npar = if sender_unassigned then Int_set.remove sender s.npar else s.npar in
  { s with children; ninfo; unassigned_seen; npar }

(* Record an assigned sender as a potential parent, together with the
   competitor set its payload reveals (the [Others] map that later decides
   our rank, hence our collision-free slot).  Never a child: re-parenting
   onto one's own convergecast child is a cycle.  In the fault-free run the
   guard is vacuous — an unassigned node cannot have children because no
   neighbour adopts a slotless parent — but during orphan repair our
   children do re-disseminate while we are slotless. *)
let record_candidate s ~sender ~info =
  let competitors =
    List.filter_map (fun (v, e) -> if Option.is_none e then Some v else None) info
  in
  let others =
    let existing =
      Option.value ~default:Int_set.empty (Int_map.find_opt sender s.others)
    in
    Int_map.add sender
      (List.fold_left (fun acc v -> Int_set.add v acc) existing competitors)
      s.others
  in
  { s with npar = Int_set.add sender s.npar; others }

let sender_assigned_in ~sender info =
  List.exists (fun (v, e) -> v = sender && Option.is_some e) info

(* receiveN of Fig. 2: a normal dissemination. *)
let on_dissem_normal ~self s ~sender ~info ~sender_parent =
  let s =
    if
      Option.is_none s.slot
      && sender_assigned_in ~sender info
      && not (Int_set.mem sender s.children)
    then record_candidate s ~sender ~info
    else s
  in
  common_dissem_update ~self s ~sender ~info ~sender_parent

(* Weak-DAS check from local knowledge: does some neighbour (or the sink)
   transmit later than us?  While it does, our data still makes progress and
   no repair is needed (Def. 3). *)
let has_forwarder ~self:_ s ~mine =
  Int_set.exists
    (fun m ->
      m = s.config.sink
      || match ninfo_slot s m with Some ms -> ms > mine | None -> false)
    s.neighbours

(* receiveU of Fig. 2: an update dissemination from the parent re-lowers our
   slot and cascades the update phase — but only when the change actually
   broke the (weak) DAS property for us.  An unconditional below-parent
   cascade would re-create a descending gradient under every decoy node of
   Phase 3 and escort the attacker onwards, defeating the redirection the
   update is meant to protect. *)
let on_dissem_update ~self s ~sender ~info ~sender_parent =
  let s = common_dissem_update ~self s ~sender ~info ~sender_parent in
  (* During orphan repair ([slot = None] while in update mode, a state the
     fault-free protocol never reaches) the neighbours we can re-anchor to
     mostly announce themselves through *update* disseminations — they are
     repairing too.  receiveN's potential-parent recording would miss them,
     so replicate it here.  [s.children] is already refreshed by
     [common_dissem_update], so a released child that re-anchored elsewhere
     (its [parent] points away from us) is admissible again. *)
  let s =
    if
      Option.is_none s.slot && (not s.normal)
      && self <> s.config.sink
      && sender_assigned_in ~sender info
      && (not (Int_set.mem sender s.children))
      && not (is_some_of self sender_parent)
    then record_candidate s ~sender ~info
    else s
  in
  let sender_slot =
    List.find_map
      (fun (v, e) ->
        if v = sender then Option.map (fun n -> n.Messages.slot) e else None)
      info
  in
  match (s.parent, s.slot, sender_slot) with
  | Some p, Some mine, Some ps
    when p = sender && mine >= ps && not (has_forwarder ~self s ~mine) ->
    let s = { s with slot = Some (ps - 1); normal = false } in
    let s = set_self_info ~self s in
    { s with dissem_budget = s.config.dissemination_timeout }
  | _ -> s

(* receiveF: the failure detector reports a crashed neighbour.  The paper
   assumes TOSSIM's static neighbourhoods; here an idealised link-layer
   detector (driven by the fault injector, [Slpdas_fault.Injector]) tells
   each surviving neighbour of a crash-stop after a detection delay.  The
   reaction is a pure purge: forget everything known about the dead node,
   and if it was our parent, drop our own assignment and re-enter Phase-1
   provisioning — the next process round re-parents us through
   [choose_parent_and_slot] among the surviving potential parents, and the
   resulting update dissemination cascades the repair to our children
   (receiveU).  Slots never rise, so the monotone-merge invariant holds. *)
(* Drop our assignment and re-enter Phase-1 provisioning.  The shared tail
   of losing a parent to a crash (receiveF below) and being detached by a
   [Release] token (receiveR).  Dropping the self Ninfo entry makes our next
   dissemination advertise ⊥ again — and [on_dissem_timer] lets a slotless
   update-mode node disseminate precisely so that this ⊥ announcement goes
   out: converged neighbours have exhausted their budget and would otherwise
   never re-disseminate, leaving the orphan nothing to overhear.  Hearing
   our ⊥ purges their record of us ([common_dissem_update]), changes their
   payload, re-arms their budget, and their answering disseminations rebuild
   [npar] with fresh slots and competitor sets.  Own children are flushed
   from [npar] (re-parenting onto one is a convergecast cycle).

   If every surviving neighbour is one of our own children, no answer can
   help — each would have to route through us.  Hand the problem down
   instead: detach the best-placed child with a [Release] token.  It
   re-anchors through its own neighbourhood (recursing if needed; the
   recursion descends the finite convergecast tree, so it terminates) and
   once it disseminates its new assignment we adopt it as our parent. *)
let orphan ~self s =
  let s =
    {
      s with
      parent = None;
      slot = None;
      hop = None;
      normal = false;
      dissem_budget = s.config.dissemination_timeout;
      ninfo = Int_map.remove self s.ninfo;
      npar = Int_set.diff s.npar s.children;
    }
  in
  if
    (not (Int_set.is_empty s.neighbours))
    && Int_set.subset s.neighbours s.children
  then begin
    let best =
      Int_set.fold
        (fun c acc ->
          let key = ((match ninfo_hop s c with Some h -> h | None -> max_int), c) in
          match acc with
          | Some best when Slpdas_util.Order.int_pair best key <= 0 -> acc
          | _ -> Some key)
        s.neighbours None
    in
    match best with
    | None -> (s, [])
    | Some (_, c) ->
      ( { s with children = Int_set.remove c s.children },
        [ Slpdas_gcn.Broadcast (Messages.Release { target = c }) ] )
  end
  else (s, [])

let on_neighbour_down ~self s ~dead =
  if dead = self then (s, [])
  else begin
    let s =
      {
        s with
        neighbours = Int_set.remove dead s.neighbours;
        npar = Int_set.remove dead s.npar;
        children = Int_set.remove dead s.children;
        others =
          Int_map.filter_map
            (fun p competitors ->
              if p = dead then None else Some (Int_set.remove dead competitors))
            s.others;
        ninfo = Int_map.remove dead s.ninfo;
        unassigned_seen = Int_set.remove dead s.unassigned_seen;
        from_ = Int_set.remove dead s.from_;
      }
    in
    if is_some_of dead s.parent && self <> s.config.sink then orphan ~self s
    else (s, [])
  end

(* receiveR: our parent became an orphan whose only surviving neighbours are
   its children, and it picked us to detach (see [orphan]).  Forget its
   (now meaningless) assignment and rejoin Phase 1 ourselves — unlike
   receiveF the ex-parent is alive, so it stays in [neighbours]; it will
   re-adopt us as *its* parent once we re-anchor and disseminate. *)
let on_release ~self s ~sender ~target =
  if target <> self || not (is_some_of sender s.parent) then (s, [])
  else
    orphan ~self
      {
        s with
        npar = Int_set.remove sender s.npar;
        ninfo = Int_map.remove sender s.ninfo;
      }

(* ------------------------------------------------------------------ *)
(* Phase 1 process action (end of each dissemination round)           *)
(* ------------------------------------------------------------------ *)

let choose_parent_and_slot ~self s =
  if Option.is_some s.slot || Int_set.is_empty s.npar then s
  else begin
    let hops =
      Int_set.fold
        (fun k acc ->
          if Int_set.mem k s.children then acc
          else
            match ninfo_hop s k with Some h -> (k, h) :: acc | None -> acc)
        s.npar []
    in
    match hops with
    | [] -> s
    | (k0, h0) :: rest ->
      let min_hop = List.fold_left (fun acc (_, h) -> min acc h) h0 rest in
      let candidates =
        List.filter_map
          (fun (k, h) -> if h = min_hop then Some k else None)
          ((k0, h0) :: rest)
        |> List.sort Int.compare
      in
      let parent = Slpdas_util.Rng.choose s.rng candidates in
      let competitors =
        Int_set.add self
          (Option.value ~default:Int_set.empty (Int_map.find_opt parent s.others))
      in
      let order =
        Int_set.elements competitors
        |> List.map (fun v ->
               (rank_key ~seed:s.config.run_seed ~parent ~node:v, v))
        |> List.sort Slpdas_util.Order.int_pair
        |> List.map snd
      in
      let rec index i = function
        | [] -> 0
        | v :: rest -> if v = self then i else index (i + 1) rest
      in
      let rank = index 0 order in
      let parent_slot =
        match ninfo_slot s parent with Some x -> x | None -> s.config.num_slots
      in
      let slot = parent_slot - rank - 1 in
      let s =
        {
          s with
          hop = Some (min_hop + 1);
          parent = Some parent;
          slot = Some slot;
          dissem_budget = s.config.dissemination_timeout;
        }
      in
      set_self_info ~self s
  end

(* Self-repair: keep our slot strictly below the parent's (update mode), and
   resolve one detected 2-hop collision per round (Fig. 2 process action).
   Any self slot decrease re-enters update mode so children repair too.

   While [strong] holds (before Phase 2 begins) the bound is the minimum
   over every known hop-1-closer neighbour, which makes the converged
   schedule a strong DAS (Def. 2).  From the search period onwards only the
   chosen parent bounds us, so Phase 3's decoy gradient — which deliberately
   sits below nodes whose shortest-path parent it is — survives (the refined
   schedule is a weak DAS, Def. 3). *)
let repair_slot ~self ~strong s =
  match s.slot with
  | None -> s
  | Some mine ->
    let parent_bound =
      match s.parent with
      | Some p ->
        begin match ninfo_slot s p with
        | Some ps when mine >= ps -> Some (ps - 1)
        | Some _ | None -> None
        end
      | None -> None
    in
    let lowered =
      if not strong then
        (* Weak mode (from Phase 2 onwards): repair only an actual weak-DAS
           violation, for the same reason as in [on_dissem_update]. *)
        if has_forwarder ~self s ~mine then None else parent_bound
      else begin
        let my_hop = Option.value ~default:max_int s.hop in
        (* Own children never bound us from below.  After an orphan
           re-anchors on a longer path its hop can exceed a child's (the
           child kept the hop of the old, shorter tree), and "stay below
           the hop-closer child" then contradicts the child's own
           stay-below-the-parent bound — the pair would chase each other's
           slots down without bound.  The child's data reaches us by the
           tree edge regardless of its hop, so the constraint buys nothing.
           Fault-free schedules never trigger this: a child's hop is always
           parent hop + 1 there. *)
        let closer_min =
          Int_set.fold
            (fun v acc ->
              if Int_set.mem v s.children then acc
              else
                match Int_map.find_opt v s.ninfo with
                | Some { Messages.hop; slot } when hop = my_hop - 1 ->
                  Some (match acc with None -> slot | Some m -> min m slot)
                | Some _ | None -> acc)
            s.neighbours None
        in
        match (parent_bound, closer_min) with
        | _, Some bound when mine >= bound ->
          let candidate = bound - 1 in
          Some
            (match parent_bound with
            | Some pb -> min pb candidate
            | None -> candidate)
        | pb, _ -> pb
      end
    in
    let lowered =
      match lowered with
      | Some _ -> lowered
      | None ->
        let my_hop = Option.value ~default:max_int s.hop in
        let key v =
          Das_build.node_order_key ~salt:s.config.run_seed v
        in
        (* (my_hop, key self, self) > (jh, key j, j), lexicographically:
           of two nodes sharing a slot, the larger triple yields. *)
        let outranks j jh =
          match Int.compare my_hop jh with
          | 0 -> (
            match Int.compare (key self) (key j) with
            | 0 -> self > j
            | c -> c > 0)
          | c -> c > 0
        in
        let collision =
          Int_map.exists
            (fun j { Messages.hop = jh; slot = js } ->
              j <> self && js = mine && outranks j jh)
            s.ninfo
        in
        if collision then Some (mine - 1) else None
    in
    begin match lowered with
    | None -> s
    | Some slot ->
      let s =
        {
          s with
          slot = Some slot;
          normal = false;
          dissem_budget = s.config.dissemination_timeout;
        }
      in
      set_self_info ~self s
    end

(* ------------------------------------------------------------------ *)
(* Phases 2 and 3                                                     *)
(* ------------------------------------------------------------------ *)

let min_slot_child s =
  let candidates =
    Int_set.fold
      (fun c acc ->
        match ninfo_slot s c with Some x -> (x, c) :: acc | None -> acc)
      s.children []
  in
  match List.sort Slpdas_util.Order.int_pair candidates with
  | [] -> None
  | (_, c) :: _ -> Some c

let alternates s =
  let base = Int_set.diff s.npar s.from_ in
  match s.parent with Some p -> Int_set.remove p base | None -> base

(* receiveS of Fig. 3. *)
let on_search ~self s ~sender ~target ~ttl =
  let s = { s with from_ = Int_set.add sender s.from_ } in
  if self <> target then (s, [])
  else if ttl > 0 then begin
    let next =
      match min_slot_child s with
      | Some c -> Some c
      | None ->
        (* No children: fall back to the lowest-slotted neighbour that is
           neither our parent nor on the search path. *)
        let eligible =
          Int_set.elements
            (Int_set.diff
               (match s.parent with
               | Some p -> Int_set.remove p s.neighbours
               | None -> s.neighbours)
               s.from_)
          |> List.filter_map (fun v ->
                 Option.map (fun x -> (x, v)) (ninfo_slot s v))
          |> List.sort Slpdas_util.Order.int_pair
        in
        (match eligible with [] -> None | (_, v) :: _ -> Some v)
    in
    match next with
    | None -> (s, [])
    | Some next ->
      (s, [ Slpdas_gcn.Broadcast (Messages.Search { target = next; ttl = ttl - 1 }) ])
  end
  else if not (Int_set.is_empty (alternates s)) then
    ({ s with start_node = true; pr = s.config.change_length }, [])
  else begin
    (* ttl = 0 with no alternate parent: keep forwarding until a suitable
       node is found (Fig. 3, final branch). *)
    let eligible set = Int_set.elements (Int_set.diff set s.from_) in
    let pool =
      match eligible s.children with
      | [] ->
        eligible
          (match s.parent with
          | Some p -> Int_set.remove p s.neighbours
          | None -> s.neighbours)
      | children -> children
    in
    match pool with
    | [] -> (s, [])
    | pool ->
      let next = Slpdas_util.Rng.choose s.rng pool in
      (s, [ Slpdas_gcn.Broadcast (Messages.Search { target = next; ttl = 0 }) ])
  end

(* startR of Fig. 4 (spontaneous: fires once when selected). *)
let start_refine ~self:_ s =
  let s = { s with start_node = false } in
  match Int_set.elements (alternates s) with
  | [] -> (s, [])
  | candidates ->
    let target = Slpdas_util.Rng.choose s.rng candidates in
    begin match neighbourhood_min_slot s with
    | None -> (s, [])
    | Some base_slot ->
      ( s,
        [
          Slpdas_gcn.Broadcast
            (Messages.Change { target; base_slot; ttl = s.pr - 1 });
        ] )
    end

(* receiveC of Fig. 4. *)
let on_change ~self s ~sender ~target ~base_slot ~ttl =
  let s = { s with from_ = Int_set.add sender s.from_ } in
  if self <> target then (s, [])
  else begin
    (* Take a slot below everything audible around the nominator and enter
       update mode so our children repair (§V text).  In a well-formed chain
       [base_slot] already includes us (we neighbour the nominator), so the
       [min] is a no-op there; it hardens against stray or corrupt tokens
       raising a slot, which nothing in this protocol may ever do. *)
    let s =
      {
        s with
        slot =
          Some
            (match s.slot with
            | Some mine -> min mine (base_slot - s.config.refine_gap)
            | None -> base_slot - s.config.refine_gap);
        normal = false;
        dissem_budget = s.config.dissemination_timeout;
      }
    in
    let s = set_self_info ~self s in
    if ttl <= 0 then (s, [])
    else begin
      let pool =
        Int_set.elements
          (Int_set.diff
             (match s.parent with
             | Some p -> Int_set.remove p s.neighbours
             | None -> s.neighbours)
             s.from_)
      in
      match pool with
      | [] -> (s, [])
      | pool ->
        let next = Slpdas_util.Rng.choose s.rng pool in
        begin match neighbourhood_min_slot s with
        | None -> (s, [])
        | Some base_slot ->
          ( s,
            [
              Slpdas_gcn.Broadcast
                (Messages.Change { target = next; base_slot; ttl = ttl - 1 });
            ] )
        end
    end
  end

(* ------------------------------------------------------------------ *)
(* Timer handlers                                                     *)
(* ------------------------------------------------------------------ *)

let on_hello_timer s =
  if s.hello_remaining <= 0 then (s, [])
  else
    ( { s with hello_remaining = s.hello_remaining - 1 },
      [
        Slpdas_gcn.Broadcast Messages.Hello;
        Slpdas_gcn.Set_timer { timer = Timer.hello; after = period_length s.config };
      ] )

let on_dissem_timer ~self s =
  (* Firing at round r (jittered); rearm for round r+1 so that the absolute
     fire times are das_start + r·Pdiss + jitter(r). *)
  let round = setup_rounds s.config - s.dissem_rounds_left in
  let rearm =
    if s.dissem_rounds_left > 1 then
      [
        Slpdas_gcn.Set_timer
          {
            timer = Timer.dissem;
            after =
              s.config.dissemination_period
              -. dissem_jitter s.config ~node:self ~round
              +. dissem_jitter s.config ~node:self ~round:(round + 1);
          };
      ]
    else []
  in
  let s = { s with dissem_rounds_left = s.dissem_rounds_left - 1 } in
  (* A slotless node in update mode is an orphan mid-repair (see [orphan]):
     it must broadcast its ⊥ announcement or converged neighbours never
     learn they have to answer.  Slotless *normal*-mode nodes are ordinary
     Phase-1 joiners and stay silent, as in the paper. *)
  let repairing = Option.is_none s.slot && (not s.normal) && self <> s.config.sink in
  let eligible = Option.is_some s.slot || self = s.config.sink || repairing in
  if not eligible then (s, rearm)
  else begin
    let current = sent_is_current ~self s in
    let budget =
      if current then s.dissem_budget else s.config.dissemination_timeout
    in
    if budget <= 0 then (s, rearm)
    else begin
      (* The payload is built only to be broadcast; an unchanged one is
         re-sent as is. *)
      let payload =
        match s.last_sent with
        | Some sent when current -> sent
        | Some _ | None -> dissem_payload ~self s
      in
      let s =
        {
          s with
          dissem_budget = budget - 1;
          last_sent = Some payload;
          (* an update dissemination is sent once, then we return to normal
             — except mid-repair, where update mode must persist until we
             re-anchor (it is what keeps us eligible here and lets receiveU
             record answering neighbours as potential parents) *)
          normal = (if repairing then s.normal else true);
        }
      in
      (s, Slpdas_gcn.Broadcast payload :: rearm)
    end
  end

let on_process_timer ~self s =
  let rearm =
    if s.process_rounds_left > 1 then
      [
        Slpdas_gcn.Set_timer
          { timer = Timer.process; after = s.config.dissemination_period };
      ]
    else []
  in
  let s = { s with process_rounds_left = s.process_rounds_left - 1 } in
  if self = s.config.sink then (s, rearm)
  else begin
    let rounds_elapsed = setup_rounds s.config - s.process_rounds_left in
    let strong =
      (not (is_slp s.config))
      || rounds_elapsed < strong_repair_rounds s.config
    in
    let s = choose_parent_and_slot ~self s in
    let s = repair_slot ~self ~strong s in
    (s, rearm)
  end

let on_search_timer ~self s =
  if self <> s.config.sink || s.search_sent || not (is_slp s.config) then (s, [])
  else begin
    match min_slot_child s with
    | None -> (s, [])
    | Some target ->
      ( { s with search_sent = true },
        [
          Slpdas_gcn.Broadcast
            (Messages.Search { target; ttl = s.config.search_distance });
        ] )
  end

let on_period_timer ~self s =
  let s = { s with period_index = s.period_index + 1 } in
  (* Reliable mode: readings whose snoop-ack never arrived are retried in
     this period's transmission. *)
  let s =
    if s.config.reliable_data && not (List.is_empty s.awaiting_ack) then
      {
        s with
        pending_readings =
          List.rev_append
            (List.filter
               (fun r -> not (List.mem r s.pending_readings))
               s.awaiting_ack)
            s.pending_readings;
        awaiting_ack = [];
      }
    else s
  in
  (* Sources sense the asset once per period (§VI-A); the reading enters the
     aggregate this node will transmit in its slot. *)
  let s =
    if List.mem self s.config.data_sources then
      { s with pending_readings = (self, s.period_index) :: s.pending_readings }
    else s
  in
  let effects =
    [
      Slpdas_gcn.Set_timer
        { timer = Timer.period; after = period_length s.config };
    ]
  in
  if self = s.config.sink then (s, effects)
  else begin
    match s.slot with
    | None -> (s, effects)
    | Some slot ->
      let offset = float_of_int (max slot 0) *. s.config.slot_period in
      (s, Slpdas_gcn.Set_timer { timer = Timer.tx; after = offset } :: effects)
  end

let on_tx_timer ~self s =
  let readings = List.rev s.pending_readings in
  let payload = Messages.Data { origin = self; seq = s.data_seq; readings } in
  let awaiting_ack =
    if s.config.reliable_data then readings @ s.awaiting_ack else []
  in
  ( { s with data_seq = s.data_seq + 1; pending_readings = []; awaiting_ack },
    [ Slpdas_gcn.Broadcast payload ] )

(* Convergecast aggregation: a parent folds in the aggregates its children
   transmit; the sink records each reading's arrival period (deduplicating,
   since reliable-mode retries can arrive twice); and in reliable mode a
   child overhearing its own readings inside its parent's aggregate treats
   that as an implicit acknowledgement. *)
let on_data ~self s ~sender ~readings =
  let s =
    if
      s.config.reliable_data
      && is_some_of sender s.parent
      && not (List.is_empty s.awaiting_ack)
    then
      {
        s with
        awaiting_ack =
          List.filter (fun r -> not (List.mem r readings)) s.awaiting_ack;
      }
    else s
  in
  if not (Int_set.mem sender s.children) then s
  else if self = s.config.sink then
    {
      s with
      delivered =
        List.fold_left
          (fun acc (origin, generation) ->
            if
              List.exists
                (fun (o, g, _) -> o = origin && g = generation)
                acc
            then acc
            else (origin, generation, s.period_index) :: acc)
          s.delivered readings;
    }
  else begin
    let fresh =
      List.filter (fun r -> not (List.mem r s.pending_readings)) readings
    in
    { s with pending_readings = List.rev_append fresh s.pending_readings }
  end

(* ------------------------------------------------------------------ *)
(* Program assembly                                                   *)
(* ------------------------------------------------------------------ *)

let extract_schedule ~n config state_of =
  let schedule = Schedule.create ~n ~sink:config.sink in
  for v = 0 to n - 1 do
    if v <> config.sink then begin
      match (state_of v).slot with
      | Some s -> Schedule.assign schedule v s
      | None -> ()
    end
  done;
  schedule

let initial_state config ~self =
  let rng =
    Slpdas_util.Rng.create ((config.run_seed * 7_368_787) lxor (self * 65_599))
  in
  let base =
    {
      config;
      rng;
      neighbours = Int_set.empty;
      npar = Int_set.empty;
      children = Int_set.empty;
      others = Int_map.empty;
      ninfo = Int_map.empty;
      unassigned_seen = Int_set.empty;
      hop = None;
      parent = None;
      slot = None;
      normal = true;
      dissem_budget = config.dissemination_timeout;
      last_sent = None;
      dissem_rounds_left = setup_rounds config;
      process_rounds_left = setup_rounds config;
      search_sent = false;
      from_ = Int_set.empty;
      start_node = false;
      pr = 0;
      hello_remaining = config.neighbour_discovery_periods;
      data_seq = 0;
      period_index = -1;
      pending_readings = [];
      awaiting_ack = [];
      delivered = [];
    }
  in
  if self = config.sink then
    set_self_info ~self { base with hop = Some 0 }
  else base

let program config ~self:_ =
  let process_slack = 0.8 in
  let init ~self =
    let s = initial_state config ~self in
    let hello_offset =
      Slpdas_util.Rng.float s.rng (period_length config *. 0.5)
    in
    let effects =
      [
        Slpdas_gcn.Set_timer { timer = Timer.hello; after = hello_offset };
        Slpdas_gcn.Set_timer
          {
            timer = Timer.dissem;
            after = das_start config +. dissem_jitter config ~node:self ~round:0;
          };
        Slpdas_gcn.Set_timer
          {
            timer = Timer.process;
            after = das_start config +. (config.dissemination_period *. process_slack);
          };
        Slpdas_gcn.Set_timer { timer = Timer.period; after = normal_start config };
      ]
    in
    let effects =
      if self = config.sink && is_slp config then
        effects
        @ [
            Slpdas_gcn.Set_timer
              {
                timer = Timer.search;
                after =
                  float_of_int config.search_start_period *. period_length config;
              };
          ]
      else effects
    in
    (s, effects)
  in
  let receive = Slpdas_gcn.on_receive in
  let timeout name timer f =
    Slpdas_gcn.on_timeout name timer (fun ~self s -> Some (f ~self s))
  in
  let actions =
    [
      receive "receiveHello" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Hello -> Some (on_hello ~self s ~sender, [])
          | _ -> None);
      receive "receiveN" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Dissem { normal = true; info; parent } ->
            Some (on_dissem_normal ~self s ~sender ~info ~sender_parent:parent, [])
          | _ -> None);
      receive "receiveU" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Dissem { normal = false; info; parent } ->
            Some (on_dissem_update ~self s ~sender ~info ~sender_parent:parent, [])
          | _ -> None);
      receive "receiveS" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Search { target; ttl } when is_slp s.config ->
            Some (on_search ~self s ~sender ~target ~ttl)
          | _ -> None);
      receive "receiveC" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Change { target; base_slot; ttl } when is_slp s.config ->
            Some (on_change ~self s ~sender ~target ~base_slot ~ttl)
          | _ -> None);
      receive "receiveData" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Data { readings; _ } ->
            Some (on_data ~self s ~sender ~readings, [])
          | _ -> None);
      receive "receiveF" (fun ~self s ~sender:_ msg ->
          match msg with
          | Messages.Neighbour_down dead -> Some (on_neighbour_down ~self s ~dead)
          | _ -> None);
      receive "receiveR" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Release { target } -> Some (on_release ~self s ~sender ~target)
          | _ -> None);
      timeout "hello" Timer.hello (fun ~self:_ s -> on_hello_timer s);
      timeout "dissem" Timer.dissem (fun ~self s -> on_dissem_timer ~self s);
      timeout "process" Timer.process (fun ~self s -> on_process_timer ~self s);
      timeout "startS" Timer.search (fun ~self s -> on_search_timer ~self s);
      timeout "period" Timer.period (fun ~self s -> on_period_timer ~self s);
      timeout "tx" Timer.tx (fun ~self s -> on_tx_timer ~self s);
    ]
  in
  let spontaneous =
    [
      {
        Slpdas_gcn.sname = "startR";
        sguard = (fun s -> s.start_node);
        scommand = (fun ~self s -> start_refine ~self s);
      };
    ]
  in
  { Slpdas_gcn.init; actions; spontaneous }
