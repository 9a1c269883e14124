(* Experiment plumbing for coupled sharded runs.

   A coupled run (Slpdas_sim.Shard.run_coupled) distributes the event bus
   over one engine per cell, so a global observer — an attacker, a trace
   exporter — cannot simply subscribe to "the" engine.  The recorder here
   reconstructs the exact global bus: each cell's monitor records every
   event together with the stable key of the queue entry being processed
   when it was emitted (Engine.processing_key), and a final merge sorts by
   (time, key, cell, arrival) — which is precisely the order the unsharded
   sequential engine's bus emits, because stable keys are unique per queue
   event and emissions within one processed event stay in arrival order.

   Attackers then run as pure folds over the merged stream (Hunter below)
   instead of live engine subscribers: a live hunter calls Engine.stop and
   emits Attacker_move into the bus, both of which are global decisions no
   single cell may take mid-window.  The fold reproduces the live hunter's
   verdict — once captured it ignores the stream's tail, exactly as the
   stopped engine never produces one. *)

module Engine = Slpdas_sim.Engine
module Event = Slpdas_sim.Event
module Shard = Slpdas_sim.Shard

type 'm entry = { e_time : float; e_k1 : int; e_k2 : int; e_event : 'm Event.t }

type 'm buf = { mutable items : 'm entry array; mutable len : int }

let buf_create () = { items = [||]; len = 0 }

let buf_push b entry =
  if b.len = Array.length b.items then begin
    let cap = max 64 (2 * Array.length b.items) in
    let items = Array.make cap entry in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- entry;
  b.len <- b.len + 1

type 'm recorder = { mutable cells : 'm buf array }

let recorder () = { cells = [||] }

(* Monitors run sequentially before the windows start, so growing the
   per-cell slot array here is single-threaded; during the run each cell's
   subscriber only touches its own buffer (the pool barrier publishes the
   writes to the draining coordinator). *)
let ensure t id =
  if id >= Array.length t.cells then begin
    let cells = Array.init (id + 1) (fun _ -> buf_create ()) in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.cells <- cells
  end;
  t.cells.(id)

let monitor t ~cell engine =
  let b = ensure t cell.Shard.id in
  Engine.subscribe engine (fun event ->
      let e_k1, e_k2 = Engine.processing_key engine in
      buf_push b { e_time = Event.time event; e_k1; e_k2; e_event = event })

(* Tap a sequential engine's bus; the thunk returns everything recorded so
   far, in emission order (which for a single engine IS the global order). *)
let tap engine =
  let b = buf_create () in
  Engine.subscribe engine (fun event ->
      buf_push b { e_time = Event.time event; e_k1 = 0; e_k2 = 0; e_event = event });
  fun () -> Array.init b.len (fun i -> b.items.(i).e_event)

let events t =
  let total = Array.fold_left (fun acc b -> acc + b.len) 0 t.cells in
  let keyed = Array.make total (0, 0, { e_time = 0.0; e_k1 = 0; e_k2 = 0; e_event = Event.Phase_transition { time = 0.0; phase = "" } }) in
  let pos = ref 0 in
  Array.iteri
    (fun cell b ->
      for i = 0 to b.len - 1 do
        keyed.(!pos) <- (cell, i, b.items.(i));
        incr pos
      done)
    t.cells;
  (* (time, k1, k2) is unique per processed queue event except for harness
     callbacks, which share the -1 lane across cells; (cell, arrival) then
     fixes an order — identical to the sequential engine's whenever
     same-time harness emissions are per-cell independent (they are for
     every workload in this repository: faults emit through the engine's
     own key, and monitors never emit). *)
  let cmp (c1, i1, a) (c2, i2, b) =
    match Float.compare a.e_time b.e_time with
    | 0 -> (
      match Int.compare a.e_k1 b.e_k1 with
      | 0 -> (
        match Int.compare a.e_k2 b.e_k2 with
        | 0 -> (
          match Int.compare c1 c2 with 0 -> Int.compare i1 i2 | c -> c)
        | c -> c)
      | c -> c)
    | c -> c
  in
  Array.sort cmp keyed;
  Array.map (fun (_, _, e) -> e.e_event) keyed

module Hunter = struct
  type result = {
    location : int;
    path : int list;
    capture_time : float option;
  }

  (* Pure replay of the adversary zoo over an event stream: the shared
     per-class step rule of Slpdas_attack.Hunter, with no engine side
     effects.  The default class reproduces the live local hunter's
     verdict — once captured the fold ignores the stream's tail, exactly
     as the stopped engine never produces one. *)
  let fold ?(cls = Slpdas_attack.Model.Local) ?(seed = 0) ?(positions = [||])
      ~graph ~start ~source ~message_id stream =
    let v =
      Slpdas_attack.Hunter.fold cls ~graph ~positions ~start ~source ~seed
        ~message_id stream
    in
    {
      location = v.Slpdas_attack.Hunter.location;
      path = v.Slpdas_attack.Hunter.path;
      capture_time = v.Slpdas_attack.Hunter.capture_time;
    }
end

let capture ?domains ?(hunter = Slpdas_attack.Model.Local)
    ?(hunter_seed = 0) plan ~link ~seed ~program ~until ~start ~source
    ~message_id () =
  let t = recorder () in
  let _, merged =
    Shard.run_coupled ?domains ~monitor:(monitor t) plan ~link ~seed
      ~program ~until
  in
  let graph = plan.Shard.base.Slpdas_wsn.Topology.graph in
  let positions = plan.Shard.base.Slpdas_wsn.Topology.positions in
  ( Hunter.fold ~cls:hunter ~seed:hunter_seed ~positions ~graph ~start ~source
      ~message_id (events t),
    merged )
