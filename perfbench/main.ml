(* perfbench: the repository benchmark.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it times the workload's public entry point for S seconds
   and reports the end-to-end metrics; with --trace 1 it runs the same
   inputs unwrapped and wrapped in spans and counters, and reports the
   per-layer metrics.  Both check the outputs (see Check) and print, as the
   last stdout line, {"correct", "attempted", "failed", "metrics"}.
   perfbench/README.md describes the workloads and metrics. *)

open Perfbench

let workloads = [ "fig5_des"; "fig5_sweep"; "serve_mixed"; "des_churn" ]

let out_dir = ".perfbench"

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1 [--write-expected]");
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  write_expected : bool;
}

let parse argv =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed when seed >= 0 -> go { a with seed } rest
      | _ -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 -> go { a with seconds } rest
      | _ -> usage ())
    | "--trace" :: "0" :: rest -> go { a with trace = false } rest
    | "--trace" :: "1" :: rest -> go { a with trace = true } rest
    | "--write-expected" :: rest -> go { a with write_expected = true } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    go
      {
        workload = "";
        seed = Check.default_seed;
        seconds = 10.0;
        trace = false;
        write_expected = false;
      }
      (List.tl (Array.to_list argv))
  in
  if not (List.mem a.workload workloads) then usage ();
  if a.write_expected && a.seed <> Check.default_seed then usage ();
  a

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Gated metrics, printed-only metrics, aliases and notes of a timed run. *)
let timed_result (m : Loop.samples Loop.measured) ~aliases =
  let lat = m.Loop.result in
  let gated, extras =
    E2e.metrics ~ops:(Loop.count lat)
      ~ops_per_s:(Report.ratio (float_of_int (Loop.count lat)) (Loop.sum lat))
      ~latencies:lat m
  in
  (gated, extras, aliases, [ E2e.note lat ], None)

let sim_note =
  "sim.self_s is the run span minus protocol handler and extract time: it \
   holds the engine, the GCN dispatch scan in Slpdas_gcn.Instance.deliver and \
   the event-bus subscribers (the attacker), none of which can be wrapped \
   from outside the program"

let run a =
  let expected =
    if a.seed = Check.default_seed && not a.write_expected then
      Some
        (try Check.read_lines (Check.expected_path a.workload)
         with Sys_error _ -> [])
    else None
  in
  let check = Check.create ~expected in
  ensure_dir out_dir;
  let scratch = Filename.concat out_dir "tmp" in
  ensure_dir scratch;
  let seed = a.seed and seconds = a.seconds in
  let metrics, extras, aliases, notes, trace =
    match a.workload with
    | "fig5_des" ->
      let setup = Des.fig5_setup ~seed in
      if a.trace then
        let topology, topo_s = Loop.setup setup in
        let layers, tr = Des.fig5_traced ~seed ~seconds ~check ~topology in
        (Layers.metrics (("wsn.topology_s", topo_s, 1) :: layers), [], [], [ sim_note ], Some tr)
      else
        Loop.measured setup (fun (topology, _) ->
            Des.fig5_untraced ~seed ~seconds ~check ~topology)
        |> timed_result ~aliases:[ ("des_runs_per_s", "ops_per_s") ]
    | "des_churn" ->
      let setup = Des.churn_setup ~seed in
      if a.trace then
        let plan = Loop.setup setup in
        let layers, tr = Des.churn_traced ~seed ~seconds ~check ~plan in
        (Layers.metrics layers, [], [], [ sim_note ], Some tr)
      else
        Loop.measured setup (fun plan -> Des.churn_untraced ~seed ~seconds ~check ~plan)
        |> timed_result ~aliases:[ ("churn_runs_per_s", "ops_per_s") ]
    | "fig5_sweep" ->
      let setup = Sweep.setup ~seed in
      if a.trace then
        let layers, tr = Sweep.traced (Loop.setup setup) ~seed ~seconds ~check in
        (Layers.metrics layers, [], [], [], Some tr)
      else
        Loop.measured setup (fun input -> Sweep.untraced input ~seed ~seconds ~check)
        |> timed_result ~aliases:[ ("sweep_seeds_per_s", "ops_per_s") ]
    | _ ->
      let setup = Serve_mix.setup ~seed in
      if a.trace then
        let layers, tr = Serve_mix.traced (Loop.setup setup) ~seconds ~check ~scratch in
        (Layers.metrics layers, [], [], [], Some tr)
      else
        let m =
          Loop.measured setup (fun input -> Serve_mix.untraced input ~seconds ~check ~scratch)
        in
        let disk, passes, acc = m.Loop.result in
        let lat = acc.Serve_mix.singles in
        (* Every pass runs the same stream, so the median pass leaves out
           the host's slow stretches of a second or two. *)
        let rates = Loop.samples () in
        List.iter
          (fun p ->
            Loop.add rates
              (Report.ratio (float_of_int p.Serve_mix.queries) p.Serve_mix.busy_s))
          passes;
        let queries = List.fold_left (fun n p -> n + p.Serve_mix.queries) 0 passes in
        let gated, extras =
          E2e.metrics ~ops:queries ~ops_per_s:(Loop.percentile rates 50.0) ~latencies:lat m
        in
        ( gated,
          extras
          @ [
              Report.metric ~samples:disk.Serve_mix.queries "serve_disk_qps" "queries/s"
                (Report.ratio (float_of_int disk.Serve_mix.queries) disk.Serve_mix.busy_s);
              Report.metric ~samples:disk.Serve_mix.replay_queries "serve_warm_qps" "queries/s"
                (Report.ratio (float_of_int disk.Serve_mix.replay_queries) disk.Serve_mix.replay_s);
            ],
          [
            ("serve_qps", "ops_per_s"); ("serve_p50_us", "op_p50_us"); ("serve_p99_us", "op_tail_us");
          ],
          [
            Printf.sprintf
              "ops_per_s is the median over %d passes of queries per second \
               inside the service calls, batch lines counted, on a Service \
               without a disk tier; serve_disk_qps and serve_warm_qps come \
               from the run's one disk-tier pass; op_p50_us and op_tail_us \
               cover single-query requests"
              (List.length passes);
            E2e.note lat;
          ],
          None )
  in
  Serve_mix.cleanup ();
  Option.iter
    (fun tr ->
      Trace.write_jsonl tr
        (Filename.concat out_dir (Printf.sprintf "spans-%s.jsonl" a.workload)))
    trace;
  let r =
    {
      Report.workload = a.workload;
      seed;
      trace = a.trace;
      seconds;
      metrics;
      extras;
      aliases;
      notes;
      check;
    }
  in
  let host = Host.fields () in
  let oc =
    open_out
      (Filename.concat out_dir
         (Printf.sprintf "%s-trace%d.json" a.workload (if a.trace then 1 else 0)))
  in
  output_string oc (Report.full_json r ~host);
  close_out oc;
  (* --write-expected merges this run's lines into the expected file, so
     the untraced and the traced run can each add theirs. *)
  if a.write_expected then begin
    let path = Check.expected_path a.workload in
    let old =
      try List.filter (fun l -> l <> "" && l.[0] <> '#') (Check.read_lines path)
      with Sys_error _ -> []
    in
    let fresh = Hashtbl.create 256 in
    List.iter (fun l -> Hashtbl.replace fresh (Check.key_of l) l) (Check.produced check);
    let kept =
      List.map
        (fun l ->
          let k = Check.key_of l in
          match Hashtbl.find_opt fresh k with
          | Some l' ->
            Hashtbl.remove fresh k;
            l'
          | None -> l)
        old
    in
    let added =
      List.filter
        (fun l ->
          let k = Check.key_of l in
          if Hashtbl.mem fresh k then (Hashtbl.remove fresh k; true) else false)
        (Check.produced check)
    in
    let oc = open_out path in
    Printf.fprintf oc "# perfbench expected output: %s, seed %d (perfbench/main.exe --write-expected)\n"
      a.workload seed;
    List.iter (fun l -> output_string oc (l ^ "\n")) (kept @ added);
    close_out oc
  end;
  Report.print r ~host

let () = run (parse Sys.argv)
