(* serve_mixed: a seeded stream of verification requests to one
   Service (the `verify`/`serve` path).

   The stream repeats requests with a skew over a working set larger than
   the 4096-answer LRU, so a pass sees memory hits, misses and evictions.
   The timed passes run it against a Service without a disk tier.  Once per
   run, before them, the same stream runs against a Service with a disk
   tier in a fresh directory, where evicted answers come back as disk hits,
   followed by a restart replay through a new Service over the same
   directory.  Every answer is compared with the uncached library call on
   the same inputs (Verifier.verify_with_stats, Mc_verify.certify), every
   reverify outcome with a full verification, and the replay's answers with
   the disk-tier stream's, byte for byte.

   The disk tier is kept out of the timed passes because a store creates a
   file, and on the shared reference host creating a small file took from
   20 us to 360 us from one second to the next: a pass writing its ~8,000
   answers took 1.2 s on a RAM disk and 1.2 to 4.6 s on the root file
   system, running the same code. *)

module Q = Slpdas_serve.Query
module S = Slpdas_serve.Service
module Core = Slpdas_core

type instance = {
  graph : Slpdas_wsn.Graph.t;
  sink : int;
  source : int;
  safety_period : int;
  base : Core.Schedule.t;  (** the centralised DAS *)
  refined : Core.Schedule.t;  (** its SLP refinement: an edit of [base] *)
}

(* (decider, R, H, M) budgets of the exhaustive queries. *)
let budgets =
  [|
    (Q.Lowest_slot, 1, 0, 1); (Q.Lowest_slot, 2, 0, 1); (Q.Lowest_slot, 2, 1, 2);
    (Q.Lowest_slot, 3, 2, 2); (Q.History_avoiding, 1, 1, 1); (Q.History_avoiding, 2, 2, 1);
    (Q.History_avoiding, 3, 3, 2); (Q.History_avoiding, 3, 4, 3); (Q.Second_lowest, 2, 0, 1);
    (Q.Second_lowest, 2, 1, 2); (Q.Second_lowest, 3, 1, 2); (Q.Second_lowest, 3, 2, 3);
  |]

(* Monte-Carlo classes, with the trial counts of the repository's mixed
   query file (the Makefile's attack-smoke target): 64, and 128 for
   sector-phantom.  The CLI's `verify` falls back to 256 trials when given
   no --mc-trials; single and file requests use the query file's counts
   here so that they share cache keys, as they do in a served file. *)
let classes = Slpdas_attack.Model.[| Local; Global; Coop 3; Sector_phantom |]

let trials_of = function Slpdas_attack.Model.Sector_phantom -> 128 | _ -> 64

let instances_n = 200

let dims = [| 7; 9; 11 |]

(* Working set: 200 instances x 2 schedules x 12 budgets = 4800 exhaustive
   answers, above the LRU's 4096, plus 1600 Monte-Carlo answers. *)
let exh_keys = instances_n * 2 * Array.length budgets

let mc_keys = instances_n * 2 * Array.length classes

type request =
  | Verify of int  (** exhaustive key *)
  | Certify of int  (** Monte-Carlo key *)
  | Edit of int * int  (** instance, budget: certify base, reverify refined *)
  | Batch of int array  (** exhaustive keys *)
  | Batch_mixed of int * int array  (** one exhaustive key, then Monte-Carlo keys *)

(* Long enough that repeats outnumber misses more than twenty to one, so the
   answer files a pass writes are a small share of its work. *)
let stream_len = 160_000

(* Replayed after the restart: the single-query requests among the first
   10,000 requests of the stream. *)
let replay_len = 10_000

type input = {
  insts : instance array;
  stream_seed : int;  (** the stream is drawn afresh from it by each pass *)
  topology_s : float list;
}

let setup ~seed () =
  let topology_s = ref [] in
  let topos =
    Array.map
      (fun d ->
        let t, dt = Clock.timed (fun () -> Slpdas_wsn.Topology.grid d) in
        topology_s := dt :: !topology_s;
        t)
      dims
  in
  let params = Slpdas_exp.Params.default in
  let insts =
    Array.init instances_n (fun k ->
        let topo = topos.(k mod Array.length dims) in
        let graph = topo.Slpdas_wsn.Topology.graph in
        let sink = topo.Slpdas_wsn.Topology.sink in
        let delta_ss = Slpdas_wsn.Topology.source_sink_distance topo in
        let rng = Slpdas_util.Rng.create ((seed * 7919) + k) in
        let das = Core.Das_build.build ~rng graph ~sink in
        let refined =
          match
            Core.Slp_refine.refine ~rng graph ~das
              ~search_distance:params.Slpdas_exp.Params.search_distance
              ~change_length:(Slpdas_exp.Params.change_length_for params ~delta_ss)
          with
          | Some r -> r.Core.Slp_refine.refined
          | None -> das.Core.Das_build.schedule
        in
        {
          graph;
          sink;
          source = topo.Slpdas_wsn.Topology.source;
          safety_period =
            Core.Safety.safety_periods ~factor:params.Slpdas_exp.Params.safety_factor
              ~delta_ss ();
          base = das.Core.Das_build.schedule;
          refined;
        })
  in
  { insts; stream_seed = (seed * 104729) + 3; topology_s = !topology_s }

(* The request mix follows the repository's two query files.  The
   Makefile's serve-smoke file has 4 exhaustive lines: the second is the
   SLP refinement of the first line's schedule, the fourth repeats the
   first.  Its attack-smoke file has 1 exhaustive line and 5 Monte-Carlo
   lines (global, coop:3, sector-phantom, local, global again).  Together
   they are half exhaustive and half Monte-Carlo queries; in serve-smoke
   one line in four is the refinement of another line's schedule.  Per 100
   requests the stream sends 30 exhaustive verifies, 10 edits (a certified
   verify of a DAS, then a reverify of its refinement: one line in four of
   the exhaustive single requests), 50 Monte-Carlo certifies, and 5 of
   each file: 75 exhaustive and 75 Monte-Carlo queries.  How often a whole
   file is sent rather than one query has no basis in the repository: 1
   request in 10 is a file.  Keys are skewed, key k with density
   proportional to 1/sqrt(k), so a few keys repeat often over a working
   set larger than the LRU.

   [iter_stream input ~len f] calls [f op request] for the first [len]
   requests.  The stream is drawn afresh on each call, so no pass holds it. *)
let iter_stream input ~len f =
  let rng = Slpdas_util.Rng.create input.stream_seed in
  let skew n =
    let u = Slpdas_util.Rng.float rng 1.0 in
    min (n - 1) (int_of_float (float_of_int n *. u *. u))
  in
  let nb = Array.length budgets and nc = Array.length classes in
  (* The same budget on the instance's other schedule. *)
  let other_schedule k = if k / nb mod 2 = 0 then k + nb else k - nb in
  (* A Monte-Carlo key of class index [c] on a skewed (instance, schedule). *)
  let mc_of_class c = (skew (2 * instances_n) * nc) + c in
  for op = 0 to len - 1 do
    let x = Slpdas_util.Rng.int rng 100 in
    f op
      (if x < 30 then Verify (skew exh_keys)
       else if x < 40 then
         Edit (Slpdas_util.Rng.int rng instances_n, Slpdas_util.Rng.int rng nb)
       else if x < 90 then Certify (skew mc_keys)
       else if x < 95 then (
         let a = skew exh_keys in
         let b = skew exh_keys in
         Batch [| a; other_schedule a; b; a |])
       else
         let e = skew exh_keys in
         let global = mc_of_class 1 in
         let coop = mc_of_class 2 in
         let sector = mc_of_class 3 in
         let local = mc_of_class 0 in
         Batch_mixed (e, [| global; coop; sector; local; global |]))
  done

(* Key layouts: exhaustive key = (instance, refined?, budget); MC key =
   (instance, refined?, class). *)
let exh_parts input k =
  let nb = Array.length budgets in
  let inst = input.insts.(k / (2 * nb)) in
  let sched = if (k / nb) mod 2 = 0 then inst.base else inst.refined in
  let decider, r, h, m = budgets.(k mod nb) in
  (inst, sched, Q.make_attacker decider ~r ~h ~m ~start:inst.sink)

let mc_parts input k =
  let nc = Array.length classes in
  let i = k / (2 * nc) in
  let inst = input.insts.(i) in
  let sched = if (k / nc) mod 2 = 0 then inst.base else inst.refined in
  let attacker = Q.make_attacker Q.Lowest_slot ~r:1 ~h:0 ~m:1 ~start:inst.sink in
  (inst, sched, classes.(k mod nc), attacker, i)

let exh_answer (outcome, explored) = Q.encode_answer { Q.outcome; explored }

let mc_answer = Slpdas_serve.Mc_query.encode_answer

(* Answers of the uncached library calls, computed once per key and run. *)
type oracle = { exh : (int, string) Hashtbl.t; mc : (int, string) Hashtbl.t }

let new_oracle () = { exh = Hashtbl.create 4096; mc = Hashtbl.create 2048 }

let exh_truth oracle input k =
  match Hashtbl.find_opt oracle.exh k with
  | Some a -> a
  | None ->
    let inst, sched, attacker = exh_parts input k in
    let a =
      exh_answer
        (Core.Verifier.verify_with_stats inst.graph sched ~attacker
           ~safety_period:inst.safety_period ~source:inst.source)
    in
    Hashtbl.replace oracle.exh k a;
    a

let mc_truth oracle input k =
  match Hashtbl.find_opt oracle.mc k with
  | Some a -> a
  | None ->
    let inst, sched, cls, attacker, seed = mc_parts input k in
    let a =
      mc_answer
        (Slpdas_attack.Mc_verify.certify
           { Slpdas_attack.Mc_verify.cls; attacker; trials = trials_of cls; seed }
           inst.graph sched ~safety_period:inst.safety_period ~source:inst.source)
    in
    Hashtbl.replace oracle.mc k a;
    a

(* A prepared request: the returned function makes only the service call,
   so building its arguments and rendering its answer are not timed. *)
let verify_request svc input k =
  let inst, sched, attacker = exh_parts input k in
  fun () ->
    S.verify_stats svc inst.graph sched ~attacker ~safety_period:inst.safety_period
      ~source:inst.source

let certify_request svc input k =
  let inst, sched, cls, attacker, seed = mc_parts input k in
  fun () ->
    S.mc_certify svc inst.graph sched ~cls ~attacker ~trials:(trials_of cls) ~seed
      ~safety_period:inst.safety_period ~source:inst.source

(* What one call cost the service, from its stats before and after. *)
type outcome_class = Mem_hit | Disk_hit | Miss | Other

let classify (s0 : S.stats) (s1 : S.stats) =
  let d f = f s1 - f s0 in
  let c f (s : S.stats) = f s.S.cache + f s.S.mc in
  if d (fun s -> s.S.computed) > 0 || d (fun s -> s.S.incremental) > 0 then Miss
  else if d (c (fun x -> x.Slpdas_serve.Cache.disk_hits)) > 0 then Disk_hit
  else if d (c (fun x -> x.Slpdas_serve.Cache.hits)) > 0 then Mem_hit
  else Other

(* Latency samples in seconds, shared by the passes of one run. *)
type samples = {
  singles : Loop.samples;  (** every single-query call *)
  mem_hit : Loop.samples;
  disk_hit : Loop.samples;
  miss : Loop.samples;
  mc_miss : Loop.samples;
  reverify : Loop.samples;
  key : Loop.samples;
  mutable mc_miss_trials : int;  (** trials of the calls in [mc_miss] *)
}

let new_samples () =
  {
    singles = Loop.samples ();
    mem_hit = Loop.samples ();
    disk_hit = Loop.samples ();
    miss = Loop.samples ();
    mc_miss = Loop.samples ();
    reverify = Loop.samples ();
    key = Loop.samples ();
    mc_miss_trials = 0;
  }

(* Per-pass totals. *)
type pass = {
  mutable queries : int;  (** single calls plus batch lines *)
  mutable busy_s : float;  (** time inside service calls *)
  mutable batch_s : float;
  mutable batch_lines : int;
  mutable mc_computed : int;
  mutable mc_trials : int;  (** trials of the Monte-Carlo answers computed *)
  mutable states : int;
  mutable replay_queries : int;
  mutable replay_s : float;
  mutable summary : string;  (** stream and replay output lines *)
  mutable final : S.stats option;
}

let new_pass () =
  {
    queries = 0;
    busy_s = 0.0;
    batch_s = 0.0;
    batch_lines = 0;
    mc_computed = 0;
    mc_trials = 0;
    states = 0;
    replay_queries = 0;
    replay_s = 0.0;
    summary = "";
    final = None;
  }

(* A digest of a long sequence of answer lines, folded in 64 KiB chunks so
   a pass never holds all its answers. *)
type digest = { mutable d : string; chunk : Buffer.t }

let new_digest () = { d = Digest.string ""; chunk = Buffer.create 65536 }

let flush_digest g =
  g.d <- Digest.string (g.d ^ Buffer.contents g.chunk);
  Buffer.clear g.chunk

let add_line g a =
  Buffer.add_string g.chunk a;
  Buffer.add_char g.chunk '\n';
  if Buffer.length g.chunk >= 65536 then flush_digest g

let digest_hex g =
  flush_digest g;
  Digest.to_hex g.d

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let pass_counter = ref 0

(* Cache directories are deleted when the run ends, not between passes:
   on a file system mounted with online discard, unlinking thousands of
   answer files slows the next pass's writes for tens of seconds. *)
let finished_dirs = ref []

let cleanup () =
  List.iter remove_tree !finished_dirs;
  finished_dirs := []

let fresh_dir ~scratch =
  incr pass_counter;
  let d =
    Filename.concat scratch
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !pass_counter)
  in
  remove_tree d;
  d

let explored_of answer =
  match String.split_on_char ' ' answer with
  | "safe" :: n :: _ -> int_of_string_opt n
  | "captured" :: _ :: n :: _ -> int_of_string_opt n
  | _ -> None

(* Restart: a new service over the same directory answers the replayed
   requests from disk, exactly as the cold stream did. *)
let replay input p ~dir ~answers ~check =
  let warm = S.create ~cache_dir:dir () in
  let replay = new_digest () in
  iter_stream input ~len:replay_len (fun op req ->
    let run encode f =
      ignore
        (Check.op check (fun () ->
             let r, dt = Clock.timed f in
             let a = encode r in
             p.replay_queries <- p.replay_queries + 1;
             p.replay_s <- p.replay_s +. dt;
             Check.invariant check (String.equal a answers.(op))
               (Printf.sprintf "replay %d: %S, cold stream %S" op a answers.(op));
             add_line replay a))
    in
    match req with
    | Verify k -> run exh_answer (verify_request warm input k)
    | Certify k -> run mc_answer (certify_request warm input k)
    | Edit _ | Batch _ | Batch_mixed _ -> ());
  let ws = S.stats warm in
  let replay_line =
    Printf.sprintf "serve.replay queries=%d answers=%s computed=%d" p.replay_queries
      (digest_hex replay)
      ws.S.computed
  in
  Check.global check (ws.S.computed = 0) "restart replay recomputed answers";
  finished_dirs := dir :: !finished_dirs;
  p.summary <- p.summary ^ "\n" ^ replay_line;
  Check.line check replay_line

(* One pass: the cold stream on a Service without a disk tier, or, with
   [disk], on a fresh directory followed by the restart replay.  With
   [trace], each service call is a span and the query key is timed
   separately. *)
let run_pass ?(disk = false) input ~acc ~oracle ~check ~trace ~scratch =
  let p = new_pass () in
  let dir = if disk then Some (fresh_dir ~scratch) else None in
  let svc = S.create ?cache_dir:dir () in
  let answers = Array.make replay_len "" in
  let digest = new_digest () in
  (* The service computes each distinct Monte-Carlo query once per pass:
     its cache holds all of them.  Two keys are one query when an
     instance's refinement left its schedule unchanged. *)
  let mc_seen = Hashtbl.create 2048 and mc_queries = Hashtbl.create 2048 in
  let mc_requested k =
    if not (Hashtbl.mem mc_seen k) then begin
      Hashtbl.replace mc_seen k ();
      let inst, sched, cls, attacker, seed = mc_parts input k in
      let trials = trials_of cls in
      match
        Slpdas_serve.Mc_query.of_request inst.graph sched ~cls ~attacker ~trials ~seed
          ~safety_period:inst.safety_period ~source:inst.source
      with
      | Some q when not (Hashtbl.mem mc_queries (Slpdas_serve.Mc_query.key q)) ->
        Hashtbl.replace mc_queries (Slpdas_serve.Mc_query.key q) ();
        p.mc_trials <- p.mc_trials + trials
      | Some _ | None -> ()
    end
  in
  let call op name f =
    let s0 = S.stats svc in
    let r, dt = Clock.timed (fun () -> Trace.span_opt trace ~op name f) in
    p.busy_s <- p.busy_s +. dt;
    (r, dt, classify s0 (S.stats svc))
  in
  let single op kind ~truth ~encode name f =
    let r, dt, cls = call op name f in
    let a = encode r in
    Loop.add acc.singles dt;
    p.queries <- p.queries + 1;
    (match cls with
    | Mem_hit -> Loop.add acc.mem_hit dt
    | Disk_hit -> Loop.add acc.disk_hit dt
    | Miss ->
      Loop.add acc.miss dt;
      (match kind with
      | `Mc trials ->
        Loop.add acc.mc_miss dt;
        acc.mc_miss_trials <- acc.mc_miss_trials + trials;
        p.mc_computed <- p.mc_computed + 1
      | `Exh -> p.states <- p.states + Option.value ~default:0 (explored_of a))
    | Other -> ());
    let t = truth () in
    Check.invariant check (String.equal a t)
      (Printf.sprintf "request %d: service answered %S, uncached call %S" op a t);
    a
  in
  (* A query file's lines, answered in one batch call and checked line by
     line against the uncached calls. *)
  let batch op name ks ~item ~run ~encode ~truth =
    let items = Array.to_list (Array.map item ks) in
    let res, dt, _ = call op name (fun () -> run items) in
    p.queries <- p.queries + Array.length ks;
    p.batch_s <- p.batch_s +. dt;
    p.batch_lines <- p.batch_lines + Array.length ks;
    let got = List.map encode res in
    List.iteri
      (fun j a ->
        let t = truth ks.(j) in
        Check.invariant check (String.equal a t)
          (Printf.sprintf "batch %d line %d: %S, uncached call %S" op j a t))
      got;
    got
  in
  let exh_batch op ks =
    batch op "serve.batch" ks ~encode:Q.encode_answer
      ~truth:(exh_truth oracle input)
      ~run:(Slpdas_serve.Batch.run_many ~domains:Host.domains svc)
      ~item:(fun k ->
        let inst, sched, attacker = exh_parts input k in
        {
          Slpdas_serve.Batch.graph = inst.graph;
          schedule = sched;
          attacker;
          safety_period = inst.safety_period;
          source = inst.source;
        })
  in
  let mc_batch op ks =
    Array.iter mc_requested ks;
    let before = (S.stats svc).S.computed in
    let got =
      batch op "serve.batch_mc" ks ~encode:mc_answer ~truth:(mc_truth oracle input)
        ~run:(Slpdas_serve.Batch.run_many_mc ~domains:Host.domains svc)
        ~item:(fun k ->
          let inst, sched, cls, attacker, seed = mc_parts input k in
          {
            Slpdas_serve.Batch.mc_graph = inst.graph;
            mc_schedule = sched;
            cls;
            mc_attacker = attacker;
            trials = trials_of cls;
            seed;
            mc_safety_period = inst.safety_period;
            mc_source = inst.source;
          })
    in
    p.mc_computed <- p.mc_computed + ((S.stats svc).S.computed - before);
    got
  in
  iter_stream input ~len:stream_len (fun op req ->
      let answer =
        Check.op check
          ~count:
            (match req with
            | Batch ks -> Array.length ks
            | Batch_mixed (_, ks) -> 1 + Array.length ks
            | Verify _ | Certify _ | Edit _ -> 1)
          (fun () ->
            match req with
            | Verify k ->
              (match trace with
              | None -> ()
              | Some _ ->
                let inst, sched, attacker = exh_parts input k in
                let (), dt =
                  Clock.timed (fun () ->
                      match
                        Q.of_request inst.graph sched ~attacker
                          ~safety_period:inst.safety_period ~source:inst.source
                      with
                      | Some q -> ignore (Q.key q)
                      | None -> ())
                in
                Loop.add acc.key dt);
              single op `Exh
                ~truth:(fun () -> exh_truth oracle input k)
                ~encode:exh_answer "serve.verify_stats" (verify_request svc input k)
            | Certify k ->
              mc_requested k;
              let _, _, cls, _, _ = mc_parts input k in
              single op (`Mc (trials_of cls))
                ~truth:(fun () -> mc_truth oracle input k)
                ~encode:mc_answer "serve.mc_certify" (certify_request svc input k)
            | Edit (i, b) ->
              let inst = input.insts.(i) in
              let decider, r, h, m = budgets.(b) in
              let attacker = Q.make_attacker decider ~r ~h ~m ~start:inst.sink in
              let nb = Array.length budgets in
              let base_key = (i * 2 * nb) + b and refined_key = (i * 2 * nb) + nb + b in
              let cert =
                single op `Exh
                  ~truth:(fun () -> exh_truth oracle input base_key)
                  ~encode:(fun c ->
                    exh_answer
                      (c.Core.Verifier.cert_outcome, Array.length c.Core.Verifier.cert_visited))
                  "serve.verify_certified" (fun () ->
                    S.verify_certified svc inst.graph inst.base ~attacker
                      ~safety_period:inst.safety_period ~source:inst.source)
              in
              let (outcome, how), dt, _ =
                call op "serve.reverify" (fun () ->
                    S.reverify svc inst.graph ~prev:inst.base inst.refined ~attacker
                      ~safety_period:inst.safety_period ~source:inst.source)
              in
              Loop.add acc.singles dt;
              Loop.add acc.reverify dt;
              p.queries <- p.queries + 1;
              let full =
                match Q.decode_answer (exh_truth oracle input refined_key) with
                | Ok a -> Some a.Q.outcome
                | Error _ -> None
              in
              Check.invariant check
                (match full with
                | Some o -> String.equal (exh_answer (o, 0)) (exh_answer (outcome, 0))
                | None -> false)
                (Printf.sprintf "request %d: reverify differs from a full verify" op);
              Printf.sprintf "%s / %s %s" cert (exh_answer (outcome, 0))
                (match how with
                | S.Cached -> "cached"
                | S.Unchanged -> "unchanged"
                | S.Incremental n -> Printf.sprintf "incremental %d" n
                | S.Full n -> Printf.sprintf "full %d" n)
            | Batch ks -> String.concat ";" (exh_batch op ks)
            | Batch_mixed (e, ks) ->
              String.concat ";" (exh_batch op [| e |] @ mc_batch op ks))
      in
      let a = Option.value ~default:"<failed>" answer in
      if op < replay_len then answers.(op) <- a;
      add_line digest a);
  let st = S.stats svc in
  p.final <- Some st;
  let c f = f st.S.cache + f st.S.mc in
  let stream_line =
    Printf.sprintf
      "%s queries=%d answers=%s mem_hits=%d disk_hits=%d misses=%d stores=%d evictions=%d computed=%d incremental=%d"
      (if disk then "serve.disk_stream" else "serve.stream")
      p.queries
      (digest_hex digest)
      (c (fun x -> x.Slpdas_serve.Cache.hits))
      (c (fun x -> x.Slpdas_serve.Cache.disk_hits))
      (c (fun x -> x.Slpdas_serve.Cache.misses))
      (c (fun x -> x.Slpdas_serve.Cache.stores))
      (c (fun x -> x.Slpdas_serve.Cache.evictions))
      st.S.computed st.S.incremental
  in
  Check.global check
    (p.mc_computed = Hashtbl.length mc_queries)
    (Printf.sprintf "%d Monte-Carlo answers computed for %d queries" p.mc_computed
       (Hashtbl.length mc_queries));
  Check.line check stream_line;
  p.summary <- stream_line;
  Option.iter (fun dir -> replay input p ~dir ~answers ~check) dir;
  p

let passes_consistent check passes =
  match passes with
  | [] -> ()
  | p0 :: rest ->
    List.iteri
      (fun k p ->
        Check.global check (String.equal p0.summary p.summary)
          (Printf.sprintf "serve pass %d output differs from pass 0" (k + 1)))
      rest

(* Returns the disk-tier pass, the timed passes and their latency samples. *)
let untraced input ~seconds ~check ~scratch =
  let oracle = new_oracle () in
  (* The disk-tier pass also warms the heap for the timed passes. *)
  let disk =
    run_pass ~disk:true input ~acc:(new_samples ()) ~oracle ~check ~trace:None ~scratch
  in
  let acc = new_samples () in
  let passes = ref [] in
  let _ =
    Loop.until ~seconds (fun _ ->
        passes := run_pass input ~acc ~oracle ~check ~trace:None ~scratch :: !passes)
  in
  let passes = List.rev !passes in
  passes_consistent check passes;
  (disk, passes, acc)

let us s = s *. 1e6

let traced input ~seconds ~check ~scratch =
  let oracle = new_oracle () in
  (* Each traced pass records its spans, but only the first pass's are kept
     (about 250,000 of them), so memory and the spans file stay bounded. *)
  let trace = Trace.create () in
  let plain = ref [] and traced = ref [] in
  (* As in [untraced], the disk-tier pass runs first and warms the heap;
     without it the unwrapped passes that trace.overhead divides by would
     carry the process's heap growth alone.  It gives the disk-tier
     metrics; every other serve metric comes from the timed passes. *)
  let disk_acc = new_samples () in
  let disk = run_pass ~disk:true input ~acc:disk_acc ~oracle ~check ~trace:None ~scratch in
  let acc = new_samples () in
  let _ =
    Loop.until ~seconds (fun _ ->
        plain :=
          run_pass input ~acc:(new_samples ()) ~oracle ~check ~trace:None ~scratch
          :: !plain;
        let tr = if !traced = [] then trace else Trace.create () in
        traced := run_pass input ~acc ~oracle ~check ~trace:(Some tr) ~scratch :: !traced)
  in
  let plain = List.rev !plain and traced = List.rev !traced in
  passes_consistent check (plain @ traced);
  let first = List.hd traced in
  let st = Option.get first.final in
  let c f = f st.S.cache + f st.S.mc in
  let all f = List.fold_left (fun acc p -> acc +. f p) 0.0 traced in
  let v name s = (name, us (Loop.mean s), Loop.count s) in
  let hits = c (fun x -> x.Slpdas_serve.Cache.hits) in
  let disk_hits =
    let ds = Option.get disk.final in
    ds.S.cache.Slpdas_serve.Cache.disk_hits + ds.S.mc.Slpdas_serve.Cache.disk_hits
  in
  let misses = c (fun x -> x.Slpdas_serve.Cache.misses) in
  let fi = float_of_int in
  let mc_miss = acc.mc_miss in
  let busy_plain = List.fold_left (fun acc p -> acc +. p.busy_s) 0.0 plain in
  let busy_traced = all (fun p -> p.busy_s) in
  let queries = first.queries in
  let batch_lines = int_of_float (all (fun p -> fi p.batch_lines)) in
  ( [
      ("serve.mem_hits", fi hits, queries);
      ("serve.disk_hits", fi disk_hits, disk.queries);
      ("serve.misses", fi misses, queries);
      ("serve.stores", fi (c (fun x -> x.Slpdas_serve.Cache.stores)), queries);
      ("serve.evictions", fi (c (fun x -> x.Slpdas_serve.Cache.evictions)), queries);
      ("serve.computed", fi st.S.computed, queries);
      ("serve.incremental", fi st.S.incremental, queries);
      ("serve.hit_ratio", Report.ratio (fi hits) (fi (hits + misses)), queries);
      v "serve.hit_us" acc.mem_hit;
      v "serve.disk_hit_us" disk_acc.disk_hit;
      v "serve.miss_us" acc.miss;
      v "serve.reverify_us" acc.reverify;
      ( "serve.batch_us_per_query",
        us (Report.ratio (all (fun p -> p.batch_s)) (fi batch_lines)),
        batch_lines );
      v "serve.key_us" acc.key;
      ( "serve.warm_qps",
        Report.ratio (fi disk.replay_queries) disk.replay_s,
        disk.replay_queries );
      ("attack.mc_trials", fi first.mc_trials, first.mc_computed);
      ("attack.mc_certify_s", Loop.mean mc_miss, Loop.count mc_miss);
      ( "attack.mc_trials_per_s",
        Report.ratio (fi acc.mc_miss_trials) (Loop.sum mc_miss),
        Loop.count mc_miss );
      ("core.verifier_states", fi first.states, queries);
      ( "wsn.topology_s",
        List.fold_left ( +. ) 0.0 input.topology_s /. fi (List.length input.topology_s),
        List.length input.topology_s );
      ("trace.overhead", Report.ratio busy_traced busy_plain -. 1.0, queries);
      ( "trace.coverage",
        Report.ratio (Trace.top_level_s trace) first.busy_s,
        queries );
    ],
    trace )
