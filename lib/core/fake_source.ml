module Int_set = Set.Make (Int)

type config = {
  sink : int;
  source : int;
  fake_sources : int list;
  source_period : float;
  fake_period : float;
  hop_delay : float;
  start_time : float;
  run_seed : int;
}

let default_config ~topology ~fake_sources ~fake_rate_multiplier =
  if fake_rate_multiplier <= 0.0 then
    invalid_arg "Fake_source.default_config: non-positive rate multiplier";
  let source_period = 5.5 in
  {
    sink = topology.Slpdas_wsn.Topology.sink;
    source = topology.Slpdas_wsn.Topology.source;
    fake_sources;
    source_period;
    fake_period = source_period /. fake_rate_multiplier;
    hop_delay = 0.02;
    start_time = 5.0;
    run_seed = 1;
  }

let opposite_corners topology ~dim =
  let corner r c = Slpdas_wsn.Topology.grid_node ~dim ~row:r ~col:c in
  List.filter
    (fun v -> v <> topology.Slpdas_wsn.Topology.source)
    [ corner 0 0; corner 0 (dim - 1); corner (dim - 1) 0; corner (dim - 1) (dim - 1) ]

type msg =
  | Hello
  | Flood of { id : int; fake : bool }

let message_id = function Hello -> None | Flood { id; _ } -> Some id

type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  neighbours : Int_set.t;
  seen : Int_set.t;
  next_real : int;
  next_fake : int;
  received_real : int list;
  received_fake : int;
  hello_remaining : int;
}

(* Globally unique message ids: even for the real source, odd (salted by the
   decoy's identity) for fakes. *)
let real_id seq = 2 * seq

let fake_id ~self seq = (2 * ((self * 1_000_000) + seq)) + 1

let hello_timer = Slpdas_gcn.Timer.intern "hello"

let gen_timer = Slpdas_gcn.Timer.intern "gen"

let fake_timer = Slpdas_gcn.Timer.intern "fake"

let flood_timer id = Slpdas_gcn.Timer.intern ("fwd-" ^ string_of_int id)

let start_flood s ~id ~fake =
  ignore fake;
  ( { s with seen = Int_set.add id s.seen },
    [ Slpdas_gcn.Set_timer { timer = flood_timer id; after = s.config.hop_delay } ]
  )

let program config ~self:_ =
  let init ~self =
    let rng =
      Slpdas_util.Rng.create
        ((config.run_seed * 2_246_822_519) lxor (self * 374_761_393))
    in
    let s =
      {
        config;
        rng;
        neighbours = Int_set.empty;
        seen = Int_set.empty;
        next_real = 0;
        next_fake = 0;
        received_real = [];
        received_fake = 0;
        hello_remaining = 3;
      }
    in
    let effects = [ Slpdas_gcn.Set_timer { timer = hello_timer; after = 0.5 } ] in
    let effects =
      if self = config.source then
        Slpdas_gcn.Set_timer { timer = gen_timer; after = config.start_time }
        :: effects
      else effects
    in
    let effects =
      if List.mem self config.fake_sources then begin
        (* Decoys start with an individual phase offset so their floods do
           not all collide with the real source's. *)
        let offset = Slpdas_util.Rng.float rng config.fake_period in
        Slpdas_gcn.Set_timer
          { timer = fake_timer; after = config.start_time +. offset }
        :: effects
      end
      else effects
    in
    (s, effects)
  in
  (* The flood data store: which id a pending forward timer belongs to and
     whether it is fake is encoded in the timer name and the seen set; the
     fake flag only matters at origination and at the sink's accounting, so
     we keep a per-id fakeness map implicitly: ids are odd iff fake. *)
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
      Slpdas_gcn.on_timeout "generate" gen_timer (fun ~self:_ s ->
          let id = real_id s.next_real in
          let s = { s with next_real = s.next_real + 1 } in
          let s, effects = start_flood s ~id ~fake:false in
          Some
            ( s,
              effects
              @ [
                  Slpdas_gcn.Set_timer
                    { timer = gen_timer; after = s.config.source_period };
                ] ));
      Slpdas_gcn.on_timeout "generate-fake" fake_timer (fun ~self s ->
          let id = fake_id ~self s.next_fake in
          let s = { s with next_fake = s.next_fake + 1 } in
          let s, effects = start_flood s ~id ~fake:true in
          Some
            ( s,
              effects
              @ [
                  Slpdas_gcn.Set_timer
                    { timer = fake_timer; after = s.config.fake_period };
                ] ));
      Slpdas_gcn.on_any_timeout "forward" (fun ~self:_ s t ->
          let name = Slpdas_gcn.Timer.name t in
          if String.length name > 4 && String.sub name 0 4 = "fwd-" then
            let id = int_of_string (String.sub name 4 (String.length name - 4)) in
            Some (s, [ Slpdas_gcn.Broadcast (Flood { id; fake = id land 1 = 1 }) ])
          else None);
      Slpdas_gcn.on_receive "receive" (fun ~self s ~sender msg ->
          match msg with
          | Hello -> Some ({ s with neighbours = Int_set.add sender s.neighbours }, [])
          | Flood { id; fake } ->
            if Int_set.mem id s.seen then Some (s, [])
            else if self = s.config.sink then
              Some
                ( {
                    s with
                    seen = Int_set.add id s.seen;
                    received_real =
                      (if fake then s.received_real else id :: s.received_real);
                    received_fake =
                      (if fake then s.received_fake + 1 else s.received_fake);
                  },
                  [] )
            else Some (start_flood s ~id ~fake));
    ]
  in
  { Slpdas_gcn.init; actions; spontaneous = [] }
