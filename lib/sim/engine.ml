let propagation_delay = 0.001

(* Per-topology link-decision cache.  Built once at [create]; collapses a
   delivery decision to at most one RNG draw and a float compare.
   [rx_power] is one flat float array in CSR layout ([off] mirrors the
   adjacency offsets), computed with exactly the float expression
   [Link_model.delivered] uses, so verdicts are bit-identical to sampling
   the link model per reception — and a million-node topology costs one
   allocation, not one per node. *)
type link_cache =
  | Always_delivered
  | Never_delivered
  | Bernoulli_loss of float  (* loss probability p, 0 < p < 1: one draw *)
  | Gaussian_rx of {
      noise_mean : float;
      noise_std : float;
      snr_threshold : float;
      off : int array;  (* off.(u): base of u's row in [rx_power] *)
      rx_power : float array;
          (* rx_power.(off.(u) + i): u → its i-th neighbour *)
    }

(* Coupled sharding (conservative lookahead windows, see Shard).  A coupled
   engine hosts one cell of a larger deployment: its nodes keep their global
   identities ([global_ids]), every RNG draw a node makes comes from that
   node's own lane (so draw sequences are per-node, not per-schedule), and
   the cut edges the shard planner kept are materialised as *boundary
   ports* — per-node CSR rows recording, for each cut neighbour, its
   position inside the node's full global adjacency row ([ports_pos]), its
   global id and its coordinates.  A broadcast walks local neighbours and
   ports merged back into global-row order, so the draw sequence on the
   sender's lane is exactly the unsharded engine's; deliveries crossing the
   boundary leave through [send] and re-enter the destination cell via
   {!ingest_delivery} at a window barrier. *)
type 'm coupling = {
  global_ids : int array;  (* local id -> global id, strictly ascending *)
  lanes : Slpdas_util.Rng.t array;  (* per-local-node RNG lanes *)
  ports_off : int array;  (* CSR offsets, length n_local + 1 *)
  ports_pos : int array;  (* position within the node's global adjacency row *)
  ports_target : int array;  (* global id of the cut neighbour *)
  ports_x : float array;  (* cut-neighbour coordinates (for link physics) *)
  ports_y : float array;
  send : at:float -> src:int -> sseq:int -> target:int -> msg:'m -> unit;
}

(* A pending event is one {!Event_queue} entry: its keys and int payload
   words live unboxed in the queue's arrays, and [event_kind] is the boxed
   payload.  The int words are [node] plus [x] and [y] as noted per kind, so
   a timer fire — most of a run's events — is a constant constructor and
   costs no allocation while it waits.

   The ordering key is [(at, seq)].  Coupled engines order same-time events
   by a stable content-based key [(k1, k2)] instead: [k1] is the global id
   of the node whose processing pushed the event (-1 for harness pushes),
   [k2] that node's own monotone push counter.  The key depends only on
   *what* pushed the event, never on the global push schedule, so a coupled
   cell and the unsharded sequential engine order the same events
   identically.  Uncoupled engines leave both at 0. *)
type ('s, 'm) event_kind =
  | Timer_fire  (* node; x = interned timer id; y = generation *)
  | Deliver of 'm
      (* node = recipient; x = observable sender id.  One arrival: below the
         batch cutover and under coupling. *)
  | Deliver_batch of { recipients : int array; msg : 'm }
      (* x = sender.  One event per broadcast above the batch cutover;
         [propagation_delay] is a constant, so all of a broadcast's arrivals
         share one timestamp and expand at pop time in adjacency order —
         the order singleton events would be pushed (and popped) in. *)
  | Callback of (('s, 'm) t -> unit)

and ('s, 'm) t = {
  topology : Slpdas_wsn.Topology.t;
  airtime : float option;
  (* Airtime only: per-node audible-transmission log — v's own and its
     neighbours' recent transmissions — so a jam check scans only candidates
     that could possibly match instead of folding the global log.  Laid out
     struct-of-arrays: ring buffers with unboxed time/sender rows and flat
     head/length arrays, so recording a transmission allocates nothing
     (amortised) instead of a boxed pair plus a Queue block per audible
     position. *)
  aud_time : float array array;
  aud_sender : int array array;
  aud_head : int array;
  aud_len : int array;
  rng : Slpdas_util.Rng.t;
  program : self:int -> ('s, 'm) Slpdas_gcn.program;
      (* kept so [revive_node] can boot a fresh instance for a crashed node *)
  instances : ('s, 'm) Slpdas_gcn.Instance.t array;
  queue : ('s, 'm) event_kind Event_queue.t;
  (* Timer generations as one flat int array of n × [gen_stride]
     slots, gens.((node * gen_stride) + Timer.id) — a single allocation
     sized once at [create] instead of an array per node.  The stride grows
     (all rows re-laid-out) in the rare case a program mints timer names
     mid-run. *)
  mutable gens : int array;
  mutable gen_stride : int;
  mutable timeouts : 'm Slpdas_gcn.trigger array;
      (* timeouts.(id): the [Timeout] trigger of interned timer [id], built
         once when the timer is first armed and shared by all its fires;
         [Round_end] until then.  Sized [gen_stride]. *)
  link_cache : link_cache;
  neighbours : int array array;  (* cached adjacency rows *)
  batch_deliveries : bool;
      (* Fold each broadcast's arrivals into one batch event.  A win on
         large networks (fewer heap operations), but on small ones the
         inflated per-event work loses to singleton events, so at or below
         [batch_cutover] nodes the engine pushes singletons — same draws,
         same order, same observables. *)
  scratch : int array;  (* delivered-recipient staging, max-degree sized *)
  mutable now : float;
  mutable next_seq : int;
  subscribers : ('m Event.t -> unit) Queue.t;
  tally : Event.tally;
  broadcast_by_node : int array;
  mutable halted : bool;
  failed : bool array;
  link_overrides : (int * int, float) Hashtbl.t;
      (* fault layer: (min u v, max u v) → extra loss probability in (0, 1];
         1.0 is a hard link-down.  Applied on top of the base link model. *)
  mutable global_loss : float;
      (* fault layer: network-wide extra loss probability; 0 = inactive *)
  coupling : 'm coupling option;
  port_rx : float array;
      (* Gaussian + coupling: precomputed rx power for each boundary
         port, aligned with [ports_target]; same float expression as the
         local link cache, so cut-edge verdicts are bit-identical to the
         unsharded engine's. *)
  sseq : int array;  (* coupled: per-local-node push counters (the k2 lane) *)
  mutable harness_sseq : int;  (* coupled: push counter of the -1 lane *)
  mutable cur_src : int;
      (* local id of the node whose effects are being applied; -1 when the
         harness (schedule/callback) is pushing *)
  mutable cur_k1 : int;  (* stable key of the event being processed *)
  mutable cur_k2 : int;
}

(* Observable node identity: a coupled engine reports global ids on the
   event bus while indexing instances/state by local id. *)
let gid t v = match t.coupling with None -> v | Some c -> c.global_ids.(v)

let time t = t.now

let topology t = t.topology

let node_state t v = Slpdas_gcn.Instance.state t.instances.(v)

let node_fire_counts t v = Slpdas_gcn.Instance.fire_counts t.instances.(v)

(* A Queue keeps registration O(1) while preserving registration order. *)
let subscribe t f = Queue.add f t.subscribers

let notify t ev = Queue.iter (fun f -> f ev) t.subscribers

let emit t ev =
  Event.record t.tally ev;
  notify t ev

(* The engine counts every event unconditionally (integer bumps); the event
   value itself is only allocated when someone is listening. *)
let listening t = not (Queue.is_empty t.subscribers)

let counters t = Event.snapshot t.tally

let broadcasts t = Event.tally_broadcasts t.tally

let broadcasts_by_node t = Array.copy t.broadcast_by_node

let deliveries t = Event.tally_deliveries t.tally

let stop t = t.halted <- true

let stopped t = t.halted

let node_failed t v =
  if v < 0 || v >= Array.length t.failed then
    invalid_arg "Engine.node_failed: node out of range";
  t.failed.(v)

(* ------------------------------------------------------------------ *)
(* Fault layer: link overrides and global loss                        *)
(* ------------------------------------------------------------------ *)

let clamp_unit p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p

let link_key u v = if u <= v then (u, v) else (v, u)

let set_link_loss t ~a ~b loss =
  let n = Array.length t.failed in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Engine.set_link_loss: node out of range";
  let loss = clamp_unit loss in
  let lo, hi = link_key a b in
  if loss > 0.0 then Hashtbl.replace t.link_overrides (lo, hi) loss
  else Hashtbl.remove t.link_overrides (lo, hi);
  (* Local ids ascend with global ids, so (gid lo, gid hi) is still the
     canonical (min, max) rendering of the edge. *)
  emit t (Event.Link_changed { time = t.now; a = gid t lo; b = gid t hi; loss })

let link_loss t ~a ~b =
  Option.value ~default:0.0 (Hashtbl.find_opt t.link_overrides (link_key a b))

let set_global_loss t loss =
  let loss = clamp_unit loss in
  t.global_loss <- loss;
  emit t (Event.Link_changed { time = t.now; a = -1; b = -1; loss })

let global_loss t = t.global_loss

let faults_active t =
  t.global_loss > 0.0 || Hashtbl.length t.link_overrides > 0

(* Fault-layer delivery filter, consulted per neighbour in adjacency order
   at broadcast time, only when the base link model delivered and some
   override is active, so fault-free runs draw exactly the RNG sequence
   they always did.  [Rng.bernoulli] consumes no randomness for degenerate
   probabilities, so a hard link-down (loss = 1) costs no draw, and an
   edge-override drop short-circuits the global draw. *)
let fault_dropped t rng u v =
  (match Hashtbl.find_opt t.link_overrides (link_key u v) with
  | Some p -> Slpdas_util.Rng.bernoulli rng p
  | None -> false)
  || (t.global_loss > 0.0 && Slpdas_util.Rng.bernoulli rng t.global_loss)

(* Push with an explicit stable key: a boundary delivery carries the key its
   sender's cell assigned, which is the key the unsharded engine would have
   assigned to the same push. *)
let push_keyed t ~at ~k1 ~k2 ~node ~x ~y kind =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Event_queue.push t.queue ~at ~seq ~k1 ~k2 ~node ~x ~y kind

let push t ~at ~node ~x ~y kind =
  match t.coupling with
  | None -> push_keyed t ~at ~k1:0 ~k2:0 ~node ~x ~y kind
  | Some c ->
    let src = t.cur_src in
    if src >= 0 then begin
      let s = t.sseq.(src) in
      t.sseq.(src) <- s + 1;
      push_keyed t ~at ~k1:c.global_ids.(src) ~k2:s ~node ~x ~y kind
    end
    else begin
      let s = t.harness_sseq in
      t.harness_sseq <- s + 1;
      push_keyed t ~at ~k1:(-1) ~k2:s ~node ~x ~y kind
    end

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: time is in the past";
  (* Harness pushes take the -1 key lane even when a node's callback-driven
     effects are on the stack, so keys depend only on who schedules. *)
  let prev = t.cur_src in
  t.cur_src <- -1;
  push t ~at ~node:0 ~x:0 ~y:0 (Callback f);
  t.cur_src <- prev

(* Timer bookkeeping: one flat array indexed by (node, interned timer id).
   The stride starts sized to the intern registry and grows (amortised
   doubling, all rows re-laid-out) when a program mints timer names
   mid-run. *)
let grow_gen_stride t want =
  let n = Array.length t.failed in
  let stride' = max want ((2 * t.gen_stride) + 1) in
  let gens' = Array.make (n * stride') 0 in
  for v = 0 to n - 1 do
    Array.blit t.gens (v * t.gen_stride) gens' (v * stride') t.gen_stride
  done;
  let timeouts' = Array.make stride' Slpdas_gcn.Round_end in
  Array.blit t.timeouts 0 timeouts' 0 t.gen_stride;
  t.gens <- gens';
  t.timeouts <- timeouts';
  t.gen_stride <- stride'

let bump_timer_generation t node timer =
  let id = Slpdas_gcn.Timer.id timer in
  if id >= t.gen_stride then grow_gen_stride t (id + 1);
  let i = (node * t.gen_stride) + id in
  let g = t.gens.(i) + 1 in
  t.gens.(i) <- g;
  g

(* Audible-log ring-buffer primitives (airtime only). *)
let aud_push t v ~time ~sender =
  let cap = Array.length t.aud_time.(v) in
  if t.aud_len.(v) = cap then begin
    (* Grow and unroll the ring to offset 0. *)
    let cap' = 2 * cap in
    let ts = Array.make cap' 0.0 and ss = Array.make cap' 0 in
    let head = t.aud_head.(v) in
    for i = 0 to cap - 1 do
      let idx = (head + i) mod cap in
      ts.(i) <- t.aud_time.(v).(idx);
      ss.(i) <- t.aud_sender.(v).(idx)
    done;
    t.aud_time.(v) <- ts;
    t.aud_sender.(v) <- ss;
    t.aud_head.(v) <- 0
  end;
  let cap = Array.length t.aud_time.(v) in
  let idx = (t.aud_head.(v) + t.aud_len.(v)) mod cap in
  t.aud_time.(v).(idx) <- time;
  t.aud_sender.(v).(idx) <- sender;
  t.aud_len.(v) <- t.aud_len.(v) + 1

let aud_prune t v ~horizon =
  let cap = Array.length t.aud_time.(v) in
  while t.aud_len.(v) > 0 && t.aud_time.(v).(t.aud_head.(v)) < horizon do
    t.aud_head.(v) <- (t.aud_head.(v) + 1) mod cap;
    t.aud_len.(v) <- t.aud_len.(v) - 1
  done

(* With interference modelling on, remember recent transmissions and prune
   entries that can no longer overlap anything. *)
let record_broadcast t node =
  match t.airtime with
  | None -> ()
  | Some airtime ->
    let horizon = t.now -. airtime -. (4.0 *. propagation_delay) in
    (* Fan the entry out to every position it is audible at (the sender's
       own — radios are half-duplex — and each neighbour's). *)
    aud_push t node ~time:t.now ~sender:node;
    aud_prune t node ~horizon;
    Array.iter
      (fun v ->
        aud_push t v ~time:t.now ~sender:node;
        aud_prune t v ~horizon)
      t.neighbours.(node)

(* A reception at [node] of a transmission sent at [tx_time] is jammed when
   any other audible transmission overlaps it (half-duplex: the receiver's
   own transmissions jam too).  Only the transmissions audible at [node]
   are scanned, with an early exit on the first overlap; pruned entries are
   at least [airtime + 3·propagation_delay] older than any [tx_time] checked
   after them, so lazy pruning never flips a verdict. *)
let jammed t ~node ~sender ~tx_time =
  match t.airtime with
  | None -> false
  | Some airtime ->
    let times = t.aud_time.(node) and senders = t.aud_sender.(node) in
    let cap = Array.length times in
    let head = t.aud_head.(node) and len = t.aud_len.(node) in
    let rec scan i =
      i < len
      &&
      let idx = (head + i) mod cap in
      (senders.(idx) <> sender && abs_float (times.(idx) -. tx_time) < airtime)
      || scan (i + 1)
    in
    scan 0

let rec apply_effects t node effects =
  (* Every push below is attributed to [node]'s key lane; restored on exit
     so harness callbacks resume pushing on the -1 lane. *)
  let prev_src = t.cur_src in
  t.cur_src <- node;
  List.iter
    (fun effect_ ->
      match (effect_ : 'm Slpdas_gcn.effect_) with
      | Slpdas_gcn.Broadcast msg -> (
        Event.count_broadcast t.tally ~time:t.now;
        t.broadcast_by_node.(node) <- t.broadcast_by_node.(node) + 1;
        record_broadcast t node;
        if listening t then
          notify t (Event.Broadcast { time = t.now; sender = gid t node; msg });
        let faults = faults_active t in
        match t.coupling with
        | Some c -> coupled_broadcast t c node msg ~faults
        | None ->
          (* RNG draws happen here, eagerly, in adjacency order, and drops are
             counted at broadcast time.  Only the delivery *arrivals* are
             deferred; above the batch cutover as one batch event, below it
             as singleton events pushed in adjacency order (so small runs
             skip the batch-expansion overhead). *)
          let nbrs = t.neighbours.(node) in
          let deg = Array.length nbrs in
          let batch = t.batch_deliveries in
          let scratch = t.scratch in
          let count = ref 0 in
          let drop v =
            Event.count_drop t.tally ~collision:false ~time:t.now;
            if listening t then
              notify t
                (Event.Drop
                   { time = t.now; node = v; sender = node; collision = false })
          in
          (* [keep] runs the fault layer after the base verdict (conditional
             draws, adjacency order). *)
          let keep v =
            if faults && fault_dropped t t.rng node v then drop v
            else if batch then begin
              Array.unsafe_set scratch !count v;
              incr count
            end
            else
              push t ~at:(t.now +. propagation_delay) ~node:v ~x:node ~y:0
                (Deliver msg)
          in
          (match t.link_cache with
          | Always_delivered when not faults && batch ->
            Array.blit nbrs 0 scratch 0 deg;
            count := deg
          | Always_delivered -> Array.iter keep nbrs
          | Never_delivered -> Array.iter drop nbrs
          | Bernoulli_loss p ->
            for i = 0 to deg - 1 do
              let v = Array.unsafe_get nbrs i in
              if not (Slpdas_util.Rng.bernoulli t.rng p) then keep v
              else drop v
            done
          | Gaussian_rx { noise_mean; noise_std; snr_threshold; off; rx_power }
            ->
            let base = Array.unsafe_get off node in
            for i = 0 to deg - 1 do
              let v = Array.unsafe_get nbrs i in
              let noise =
                Slpdas_util.Rng.gaussian t.rng ~mean:noise_mean ~std:noise_std
              in
              if Array.unsafe_get rx_power (base + i) -. noise >= snr_threshold
              then keep v
              else drop v
            done);
          if batch && !count > 0 then
            push t ~at:(t.now +. propagation_delay) ~node:0 ~x:node ~y:0
              (Deliver_batch { recipients = Array.sub scratch 0 !count; msg }))
      | Slpdas_gcn.Set_timer { timer; after } ->
        let generation = bump_timer_generation t node timer in
        let id = Slpdas_gcn.Timer.id timer in
        (match t.timeouts.(id) with
        | Slpdas_gcn.Round_end -> t.timeouts.(id) <- Slpdas_gcn.Timeout timer
        | Slpdas_gcn.Timeout _ | Slpdas_gcn.Receive _ -> ());
        push t ~at:(t.now +. after) ~node ~x:id ~y:generation Timer_fire
      | Slpdas_gcn.Stop_timer timer ->
        ignore (bump_timer_generation t node timer))
    effects;
  t.cur_src <- prev_src

(* Coupled broadcast: walk the sender's local neighbours and boundary ports
   merged back into global-adjacency-row order ([ports_pos] marks the slots
   ports occupy; local neighbours, whose ascending local ids ascend globally
   too, fill the rest in order).  Every verdict draws from the sender's own
   lane, so the draw sequence is exactly the one the unsharded engine makes
   for this node's full row — whatever other cells are doing.  Deliveries
   stay singleton events (never batched) because a batch event would carry
   only its first delivery's stable key. *)
and coupled_broadcast t c node msg ~faults =
  let lane = c.lanes.(node) in
  let gnode = c.global_ids.(node) in
  let nbrs = t.neighbours.(node) in
  let p_lo = c.ports_off.(node) and p_hi = c.ports_off.(node + 1) in
  let total = Array.length nbrs + (p_hi - p_lo) in
  let at = t.now +. propagation_delay in
  let drop gv =
    Event.count_drop t.tally ~collision:false ~time:t.now;
    if listening t then
      notify t
        (Event.Drop { time = t.now; node = gv; sender = gnode; collision = false })
  in
  let li = ref 0 and pi = ref p_lo in
  for pos = 0 to total - 1 do
    if !pi < p_hi && Array.unsafe_get c.ports_pos !pi = pos then begin
      (* Cut neighbour. *)
      let i = !pi in
      incr pi;
      let target = Array.unsafe_get c.ports_target i in
      let delivered =
        match t.link_cache with
        | Always_delivered -> true
        | Never_delivered -> false
        | Bernoulli_loss p -> not (Slpdas_util.Rng.bernoulli lane p)
        | Gaussian_rx { noise_mean; noise_std; snr_threshold; _ } ->
          let noise =
            Slpdas_util.Rng.gaussian lane ~mean:noise_mean ~std:noise_std
          in
          Array.unsafe_get t.port_rx i -. noise >= snr_threshold
      in
      if not delivered then drop target
      else if
        (* Cut-edge link overrides are unsupported (Shard validates before a
           coupled run); only the network-wide loss floor applies, drawn
           from the sender's lane exactly as the unsharded engine draws it
           when no per-edge override matches. *)
        faults
        && t.global_loss > 0.0
        && Slpdas_util.Rng.bernoulli lane t.global_loss
      then drop target
      else begin
        (* The counter bump keeps this node's k2 numbering aligned with the
           unsharded engine, where this delivery is a local push. *)
        let s = t.sseq.(node) in
        t.sseq.(node) <- s + 1;
        c.send ~at ~src:gnode ~sseq:s ~target ~msg
      end
    end
    else begin
      let l = !li in
      incr li;
      let v = Array.unsafe_get nbrs l in
      let delivered =
        match t.link_cache with
        | Always_delivered -> true
        | Never_delivered -> false
        | Bernoulli_loss p -> not (Slpdas_util.Rng.bernoulli lane p)
        | Gaussian_rx { noise_mean; noise_std; snr_threshold; off; rx_power } ->
          let noise =
            Slpdas_util.Rng.gaussian lane ~mean:noise_mean ~std:noise_std
          in
          Array.unsafe_get rx_power (Array.unsafe_get off node + l) -. noise
          >= snr_threshold
      in
      if not delivered then drop c.global_ids.(v)
      else if faults && fault_dropped t lane node v then drop c.global_ids.(v)
      else push t ~at ~node:v ~x:gnode ~y:0 (Deliver msg)
    end
  done

and inject t ~node trigger =
  (* Crash-stop failures: a failed node neither processes triggers nor emits
     effects. *)
  if not t.failed.(node) then begin
    let effects = Slpdas_gcn.Instance.deliver t.instances.(node) trigger in
    apply_effects t node effects
  end

let fail_node t v =
  if v < 0 || v >= Array.length t.failed then
    invalid_arg "Engine.fail_node: node out of range";
  if not t.failed.(v) then begin
    t.failed.(v) <- true;
    (* Cancel every pending timer of the node by bumping its generations.
       The fires would be swallowed by the [inject] failure guard anyway,
       but cancelling keeps them out of the event counts and lets the queue
       drain.  A bump never un-stales a pending fire (generations only
       grow), so bumping timers the node never armed is harmless. *)
    let base = v * t.gen_stride in
    for i = base to base + t.gen_stride - 1 do
      t.gens.(i) <- t.gens.(i) + 1
    done;
    emit t (Event.Node_failed { time = t.now; node = gid t v })
  end

let revive_node t v =
  if v < 0 || v >= Array.length t.failed then
    invalid_arg "Engine.revive_node: node out of range";
  if t.failed.(v) then begin
    t.failed.(v) <- false;
    (* The node rejoins as a fresh boot: crash-stop wiped its volatile
       state, so a brand-new instance runs [init] (and its spontaneous
       fixpoint) at the current time.  In-flight deliveries queued before
       the crash reach the fresh instance. *)
    let self = gid t v in
    let instance, effects =
      Slpdas_gcn.Instance.create (t.program ~self) ~self
    in
    t.instances.(v) <- instance;
    emit t (Event.Node_revived { time = t.now; node = self });
    apply_effects t v effects
  end

(* Euclidean distance between node positions: the radio range the link
   physics sees. *)
let distance_m (x1, y1) (x2, y2) =
  sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

let build_link_cache ~topology ~link ~neighbours =
  match Link_model.prepare link with
  | Link_model.Static true -> Always_delivered
  | Link_model.Static false -> Never_delivered
  | Link_model.Bernoulli p -> Bernoulli_loss p
  | Link_model.Snr { noise_mean_dbm; noise_std_dbm; snr_threshold_db; rx_power_dbm }
    ->
    let positions = topology.Slpdas_wsn.Topology.positions in
    let n = Array.length neighbours in
    let off = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      off.(u + 1) <- off.(u) + Array.length neighbours.(u)
    done;
    let rx_power = Array.make off.(n) 0.0 in
    Array.iteri
      (fun u row ->
        let base = off.(u) in
        Array.iteri
          (fun i v ->
            (* Evaluated once per directed edge instead of once per
               reception. *)
            rx_power.(base + i) <-
              rx_power_dbm ~distance_m:(distance_m positions.(u) positions.(v)))
          row)
      neighbours;
    Gaussian_rx
      {
        noise_mean = noise_mean_dbm;
        noise_std = noise_std_dbm;
        snr_threshold = snr_threshold_db;
        off;
        rx_power;
      }

(* Above this node count each broadcast's arrivals are one batch event; at
   or below it, singleton delivery events.  Chosen so the paper-scale grids
   (11x11 … 21x21) take the lighter small-run path while anything
   approaching the ROADMAP's large deployments batches.  The two regimes
   are observably identical — the cutover trades constant factors only. *)
let batch_cutover = 1024

let create ?airtime ?coupling ~topology ~link ~rng ~program () =
  let graph = topology.Slpdas_wsn.Topology.graph in
  let n = Slpdas_wsn.Graph.n graph in
  (match (coupling, airtime) with
  | Some _, Some _ ->
    invalid_arg
      "Engine.create: coupling is incompatible with airtime interference (a \
       transmission jams same-timestamp receptions across the cell boundary, \
       so the conservative lookahead window would be zero)"
  | _ -> ());
  (match coupling with
  | None -> ()
  | Some c ->
    if Array.length c.global_ids <> n then
      invalid_arg "Engine.create: coupling.global_ids must cover every node";
    if Array.length c.lanes <> n then
      invalid_arg "Engine.create: coupling.lanes must cover every node";
    if Array.length c.ports_off <> n + 1 then
      invalid_arg "Engine.create: coupling.ports_off must have n + 1 offsets");
  (* Coupled ordering: (at, k1, k2) is schedule-independent and unique per
     event ((k1, k2) alone never repeats), so the [seq] fallback is a pure
     safety net for totality. *)
  let queue = Event_queue.create ~stable:(Option.is_some coupling) Timer_fire in
  let self_of v =
    match coupling with None -> v | Some c -> c.global_ids.(v)
  in
  let boot =
    Array.init n (fun v ->
        let self = self_of v in
        Slpdas_gcn.Instance.create (program ~self) ~self)
  in
  (* Cut-edge rx powers for the Gaussian model, computed with the same
     float expression as the local link cache so boundary verdicts match the
     unsharded engine's bit-for-bit. *)
  let port_rx =
    match coupling with
    | None -> [||]
    | Some c -> (
      match Link_model.prepare link with
      | Link_model.Static _ | Link_model.Bernoulli _ -> [||]
      | Link_model.Snr { rx_power_dbm; _ } ->
        let positions = topology.Slpdas_wsn.Topology.positions in
        let pr = Array.make (Array.length c.ports_target) 0.0 in
        for u = 0 to n - 1 do
          for i = c.ports_off.(u) to c.ports_off.(u + 1) - 1 do
            pr.(i) <-
              rx_power_dbm
                ~distance_m:
                  (distance_m positions.(u) (c.ports_x.(i), c.ports_y.(i)))
          done
        done;
        pr)
  in
  let neighbours = Array.init n (Slpdas_wsn.Graph.neighbours graph) in
  let max_degree =
    Array.fold_left (fun acc row -> max acc (Array.length row)) 0 neighbours
  in
  let timer_slots = max 1 (Slpdas_gcn.Timer.count ()) in
  let logged = Option.is_some airtime in
  let t =
    {
      topology;
      airtime;
      aud_time =
        (if logged then Array.init n (fun _ -> Array.make 8 0.0) else [||]);
      aud_sender =
        (if logged then Array.init n (fun _ -> Array.make 8 0) else [||]);
      aud_head = (if logged then Array.make n 0 else [||]);
      aud_len = (if logged then Array.make n 0 else [||]);
      rng;
      program;
      instances = Array.map fst boot;
      queue;
      gens = Array.make (n * timer_slots) 0;
      gen_stride = timer_slots;
      timeouts = Array.make timer_slots Slpdas_gcn.Round_end;
      link_cache = build_link_cache ~topology ~link ~neighbours;
      neighbours;
      batch_deliveries =
        (* Coupled engines never batch: a batch event would carry only its
           first delivery's stable key, breaking the schedule-independent
           interleave with other senders' events. *)
        Option.is_none coupling && n > batch_cutover;
      scratch = Array.make max_degree 0;
      now = 0.0;
      next_seq = 0;
      subscribers = Queue.create ();
      tally = Event.tally_create ();
      broadcast_by_node = Array.make n 0;
      halted = false;
      failed = Array.make n false;
      link_overrides =
        (* Sparse fault-layer table, consulted only while overrides are
           active.  (* slp-lint: allow hot-path-hashtbl *) *)
        Hashtbl.create 8;
      global_loss = 0.0;
      coupling;
      port_rx;
      sseq = (match coupling with Some _ -> Array.make n 0 | None -> [||]);
      harness_sseq = 0;
      cur_src = -1;
      cur_k1 = -1;
      cur_k2 = -1;
    }
  in
  Array.iteri
    (fun v (_, effects) ->
      (* Boot emissions are observed under the boot key (global id, -1) —
         the same key whatever order cells boot their nodes in.  (Pushes
         made during boot take the node's own sseq lane via [push].) *)
      t.cur_k1 <- self_of v;
      t.cur_k2 <- -1;
      apply_effects t v effects)
    boot;
  t.cur_k1 <- -1;
  t.cur_k2 <- -1;
  t

(* [sender] is already an observable id: global ids are stored in [Deliver]
   events at push time under coupling, local (= global) ids otherwise. *)
let deliver_one t ~node ~sender ~tx_time msg =
  if jammed t ~node ~sender ~tx_time then begin
    Event.count_drop t.tally ~collision:true ~time:t.now;
    if listening t then
      notify t
        (Event.Drop
           { time = t.now; node = gid t node; sender; collision = true })
  end
  else begin
    Event.count_delivery t.tally ~time:t.now;
    if listening t then
      notify t (Event.Delivery { time = t.now; node = gid t node; sender; msg });
    inject t ~node (Slpdas_gcn.Receive { sender; msg })
  end

let process t ~at ~k1 ~k2 ~node ~x ~y kind =
  t.now <- at;
  t.cur_k1 <- k1;
  t.cur_k2 <- k2;
  match kind with
  | Timer_fire ->
    (* Stale fires (superseded by a later Set/Stop_timer) are dropped
       silently: they never reach the node, so they are not events. *)
    if y = t.gens.((node * t.gen_stride) + x) then begin
      let trigger = t.timeouts.(x) in
      Event.count_timer_fire t.tally ~time:t.now;
      if listening t then begin
        (* [timeouts] holds a [Timeout] for every timer ever armed. *)
        match trigger with
        | Slpdas_gcn.Timeout timer ->
          notify t
            (Event.Timer_fire
               {
                 time = t.now;
                 node = gid t node;
                 timer = Slpdas_gcn.Timer.name timer;
               })
        | Slpdas_gcn.Receive _ | Slpdas_gcn.Round_end -> ()
      end;
      inject t ~node trigger
    end
  | Deliver msg ->
    deliver_one t ~node ~sender:x ~tx_time:(t.now -. propagation_delay) msg
  | Deliver_batch { recipients; msg } ->
    (* Expand in push (= adjacency) order.  [halted] is re-checked between
       recipients because singleton events would stop being popped as soon
       as a subscriber called [stop]. *)
    let tx_time = t.now -. propagation_delay in
    let k = Array.length recipients in
    let i = ref 0 in
    while (not t.halted) && !i < k do
      deliver_one t ~node:recipients.(!i) ~sender:x ~tx_time msg;
      incr i
    done
  | Callback f -> f t

(* Remove the earliest event from the queue, then process it. *)
let pop_and_process t =
  let q = t.queue in
  let at = Event_queue.min_at q
  and k1 = Event_queue.min_k1 q
  and k2 = Event_queue.min_k2 q
  and node = Event_queue.min_node q
  and x = Event_queue.min_x q
  and y = Event_queue.min_y q
  and kind = Event_queue.min_payload q in
  Event_queue.pop q;
  process t ~at ~k1 ~k2 ~node ~x ~y kind

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    pop_and_process t;
    true
  end

let run_until t deadline =
  let q = t.queue in
  while
    (not t.halted)
    && (not (Event_queue.is_empty q))
    && Event_queue.min_at q <= deadline
  do
    pop_and_process t
  done;
  if not t.halted then t.now <- max t.now deadline

(* ------------------------------------------------------------------ *)
(* Conservative-window driving surface (coupled sharding)             *)
(* ------------------------------------------------------------------ *)

let next_event_time t =
  if Event_queue.is_empty t.queue then None
  else Some (Event_queue.min_at t.queue)

let run_window t ~stop_before ~deadline =
  let q = t.queue in
  while
    (not t.halted)
    && (not (Event_queue.is_empty q))
    &&
    let at = Event_queue.min_at q in
    at < stop_before && at <= deadline
  do
    pop_and_process t
  done

let advance_to t time = if not t.halted then t.now <- max t.now time

let ingest_delivery t ~at ~src ~sseq ~node ~msg =
  (match t.coupling with
  | None -> invalid_arg "Engine.ingest_delivery: engine is not coupled"
  | Some _ -> ());
  if node < 0 || node >= Array.length t.failed then
    invalid_arg "Engine.ingest_delivery: node out of range";
  push_keyed t ~at ~k1:src ~k2:sseq ~node ~x:src ~y:0 (Deliver msg)

let processing_key t = (t.cur_k1, t.cur_k2)
