(* fig5_sweep: Capture.centralized (the `experiment --fast` path) over
   seeds, both modes, on the 41x41 grid and on a seeded random unit-disk
   deployment of 441 nodes.  No engine events: the time is the centralised
   DAS build, SLP refinement, verification and DAS checks.

   The traced run replays the per-seed body of Capture.centralized from
   outside, with a span around each public call it makes, and checks that
   the replay gives the same run detail as Capture.centralized itself. *)

module Capture = Slpdas_exp.Capture
module Core = Slpdas_core

let grid_dim = 41

(* n = 441 nodes in a 100 m square with a 8.4 m radio range: mean degree
   about 9, against 4 on the grid.  Several deployments per run, so the
   cost of one placement does not set the run's figures. *)
let disk_nodes = 441

let disk_side = 100.0

let disk_range = 8.4

let disks = 16

type input = {
  grid : Slpdas_wsn.Topology.t;
  disk : Slpdas_wsn.Topology.t array;
  topology_s : float list;  (** every Topology call *)
}

let placement_rng ~seed j = Slpdas_util.Rng.create ((seed * 7919) + (17 * (j + 1)))

let place rng =
  Slpdas_wsn.Topology.random_unit_disk rng ~n:disk_nodes ~side:disk_side
    ~range:disk_range ~max_attempts:1

(* Deployment [j] is the first connected placement drawn from
   [placement_rng j], as [random_unit_disk ~max_attempts] would find it.
   How many placements fail before it depends on the seed, so the search
   runs once here, outside set-up, and set-up only skips their draws
   (2 per node) and builds the connected one: the same topology work on
   every seed. *)
let failed_placements ~seed =
  Array.init disks (fun j ->
      let rng = placement_rng ~seed j in
      let rec go k =
        if k >= 1000 then failwith "fig5_sweep: no connected unit-disk placement"
        else match place rng with Some _ -> k | None -> go (k + 1)
      in
      go 0)

let setup ~seed =
  let failed = failed_placements ~seed in
  fun () ->
    let grid, tg = Clock.timed (fun () -> Slpdas_wsn.Topology.grid grid_dim) in
    let placed =
      Array.init disks (fun j ->
          let rng = placement_rng ~seed j in
          for _ = 1 to 2 * disk_nodes * failed.(j) do
            ignore (Slpdas_util.Rng.float rng 1.0)
          done;
          match Clock.timed (fun () -> place rng) with
          | Some disk, td -> (disk, td)
          | None, _ -> failwith "fig5_sweep: unit-disk placement not reproduced")
    in
    {
      grid;
      disk = Array.map fst placed;
      topology_s = tg :: Array.to_list (Array.map snd placed);
    }

let mode_name = function
  | Core.Protocol.Protectionless -> "protectionless"
  | Core.Protocol.Slp -> "slp"

(* Operation [i]: kind [i mod 4] (grid/disk x protectionless/SLP) at run
   seed [seed*1000 + i/4]; disk operations rotate over the deployments. *)
let kinds = 4

let op input ~seed i =
  let topology, tname =
    if i mod kinds < 2 then (input.grid, "grid41")
    else
      let j = i / kinds mod disks in
      (input.disk.(j), Printf.sprintf "disk441.%d" j)
  in
  let mode = if i mod 2 = 0 then Core.Protocol.Protectionless else Core.Protocol.Slp in
  (topology, tname, mode, (seed * 1000) + (i / kinds))

let detail_line i tname mode (d : Capture.run_detail) =
  Printf.sprintf "sweep.%d %s %s seed=%d captured=%b periods=%s strong=%b weak=%b" i
    tname (mode_name mode) d.Capture.seed d.Capture.captured
    (match d.Capture.capture_periods with None -> "-" | Some p -> string_of_int p)
    d.Capture.strong_das d.Capture.weak_das

let params = Slpdas_exp.Params.default

let centralized topology mode run_seed =
  let s =
    Capture.centralized ~domains:Host.domains ~topology ~mode ~params
      ~attacker:Core.Attacker.canonical ~seeds:[ run_seed ] ()
  in
  List.hd s.Capture.details

(* Centralised builds keep the DAS property on every connected
   deployment: the refined SLP schedule is at least a weak DAS. *)
let check_detail check i (d : Capture.run_detail) =
  Check.invariant check d.Capture.weak_das
    (Printf.sprintf "sweep.%d: schedule is not a weak DAS" i)

let untraced input ~seed ~seconds ~check =
  let lat = Loop.samples () in
  let _ =
    Loop.until ~seconds (fun i ->
        let topology, tname, mode, run_seed = op input ~seed i in
        match
          Check.op check (fun () ->
              let d, dt = Clock.timed (fun () -> centralized topology mode run_seed) in
              Check.line check (detail_line i tname mode d);
              check_detail check i d;
              dt)
        with
        | Some dt when i > 0 -> Loop.add lat dt
        | Some _ | None -> ())
  in
  lat

(* The per-seed body of Capture.centralized, one span per library call. *)
let replay trace ~op:i topology mode seed ~states =
  let span name f = Trace.span trace ~op:i name f in
  let graph = topology.Slpdas_wsn.Topology.graph in
  let sink = topology.Slpdas_wsn.Topology.sink in
  let source = topology.Slpdas_wsn.Topology.source in
  let delta_ss = Slpdas_wsn.Topology.source_sink_distance topology in
  let safety_period =
    Core.Safety.safety_periods ~factor:params.Slpdas_exp.Params.safety_factor ~delta_ss ()
  in
  span "exp.centralized" (fun () ->
      let rng = Slpdas_util.Rng.create seed in
      let das = span "core.das_build" (fun () -> Core.Das_build.build ~rng graph ~sink) in
      let schedule =
        match mode with
        | Core.Protocol.Protectionless -> das.Core.Das_build.schedule
        | Core.Protocol.Slp -> (
          let change_length = Slpdas_exp.Params.change_length_for params ~delta_ss in
          match
            span "core.slp_refine" (fun () ->
                Core.Slp_refine.refine ~rng ~gap:params.Slpdas_exp.Params.refine_gap graph
                  ~das ~search_distance:params.Slpdas_exp.Params.search_distance
                  ~change_length)
          with
          | Some r -> r.Core.Slp_refine.refined
          | None -> das.Core.Das_build.schedule)
      in
      let outcome, explored =
        span "core.verifier" (fun () ->
            Core.Verifier.verify_with_stats graph schedule
              ~attacker:(Core.Attacker.canonical ~start:sink) ~safety_period ~source)
      in
      states := !states + explored;
      let strong, weak =
        span "core.das_check" (fun () ->
            (Core.Das_check.is_strong graph schedule, Core.Das_check.is_weak graph schedule))
      in
      let captured, capture_periods =
        match outcome with
        | Core.Verifier.Safe -> (false, None)
        | Core.Verifier.Captured { periods; _ } -> (true, Some periods)
      in
      {
        Capture.seed;
        captured;
        capture_periods;
        strong_das = strong;
        weak_das = weak;
        setup_messages = 0;
      })

let pass_ops = 8

let traced input ~seed ~seconds ~check =
  let trace = Trace.create () in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 and ops = ref 0 in
  let first_states = ref None in
  let _ =
    Loop.until ~seconds (fun pass ->
        let states = ref 0 in
        for i = 0 to pass_ops - 1 do
          let topology, tname, mode, run_seed = op input ~seed i in
          ignore
            (Check.op check (fun () ->
                 let d, tu = Clock.timed (fun () -> centralized topology mode run_seed) in
                 let r, tt =
                   Clock.timed (fun () -> replay trace ~op:i topology mode run_seed ~states)
                 in
                 untraced_s := !untraced_s +. tu;
                 traced_s := !traced_s +. tt;
                 incr ops;
                 let line = detail_line i tname mode d in
                 Check.line check line;
                 check_detail check i d;
                 Check.invariant check
                   (String.equal line (detail_line i tname mode r))
                   (Printf.sprintf "sweep.%d: traced replay differs from Capture.centralized" i)))
        done;
        match !first_states with
        | None -> first_states := Some !states
        | Some s0 ->
          Check.global check (s0 = !states)
            (Printf.sprintf "traced pass %d explored %d states, pass 0 %d" pass !states s0))
  in
  let t = Trace.totals trace in
  let mean name = let x = t name in (Report.ratio x.Trace.total_s (float_of_int x.Trace.count), x.Trace.count) in
  let v name metric = let m, n = mean name in (metric, m, n) in
  let topo = input.topology_s in
  ( [
      v "core.das_build" "core.das_build_s";
      v "core.slp_refine" "core.slp_refine_s";
      v "core.verifier" "core.verifier_s";
      v "core.das_check" "core.das_check_s";
      ("core.verifier_states", float_of_int (Option.value ~default:0 !first_states), pass_ops);
      ( "wsn.topology_s",
        List.fold_left ( +. ) 0.0 topo /. float_of_int (List.length topo),
        List.length topo );
      ("trace.overhead", Report.ratio !traced_s !untraced_s -. 1.0, !ops);
      ("trace.coverage", Report.ratio (Trace.top_level_s trace) !traced_s, !ops);
    ],
    trace )
