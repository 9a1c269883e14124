(* Tests for the verification service stack: stable digests
   (Graph.fingerprint / Schedule.digest / Fnv), canonical queries, the
   LRU + disk cache, the Service front (cached == uncached == reference),
   incremental re-verification against the full-verify oracle, batch
   dedup/order/domain-invariance, and the (SD, CL) auto-tuner. *)

module Graph = Slpdas_wsn.Graph
module Topology = Slpdas_wsn.Topology
module Rng = Slpdas_util.Rng
module Fnv = Slpdas_util.Fnv
module Schedule = Slpdas_core.Schedule
module Das_build = Slpdas_core.Das_build
module Attacker = Slpdas_core.Attacker
module Verifier = Slpdas_core.Verifier
module Slp_refine = Slpdas_core.Slp_refine
module Safety = Slpdas_core.Safety
module Fault_plan = Slpdas_fault.Fault_plan
module Resilience = Slpdas_fault.Resilience
module Query = Slpdas_serve.Query
module Cache = Slpdas_serve.Cache
module Service = Slpdas_serve.Service
module Batch = Slpdas_serve.Batch
module Tuner = Slpdas_serve.Tuner

let outcome_testable =
  Alcotest.testable
    (fun ppf -> function
      | Verifier.Safe -> Format.fprintf ppf "Safe"
      | Verifier.Captured { trace; periods } ->
        Format.fprintf ppf "Captured(p=%d, trace=%a)" periods
          Format.(
            pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ",")
              pp_print_int)
          trace)
    (fun a b ->
      match (a, b) with
      | Verifier.Safe, Verifier.Safe -> true
      | ( Verifier.Captured { trace = ta; periods = pa },
          Verifier.Captured { trace = tb; periods = pb } ) ->
        pa = pb && List.equal Int.equal ta tb
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Stable digests                                                     *)
(* ------------------------------------------------------------------ *)

let test_fnv_framing () =
  let digest feed =
    let h = Fnv.create () in
    feed h;
    Fnv.hex h
  in
  let d1 = digest (fun h -> Fnv.add_string h "ab"; Fnv.add_string h "c") in
  let d2 = digest (fun h -> Fnv.add_string h "a"; Fnv.add_string h "bc") in
  Alcotest.(check bool) "length-prefixing separates framings" false
    (String.equal d1 d2);
  Alcotest.(check string) "deterministic" d1
    (digest (fun h -> Fnv.add_string h "ab"; Fnv.add_string h "c"));
  Alcotest.(check int) "32 hex chars" 32 (String.length d1);
  let dneg = digest (fun h -> Fnv.add_int h (-1)) in
  let dpos = digest (fun h -> Fnv.add_int h 1) in
  Alcotest.(check bool) "sign matters" false (String.equal dneg dpos)

(* The digest algorithm is pinned: these values must never change, or warm
   disk caches written by earlier builds would silently go cold (or worse,
   a key scheme change could alias).  Computed by the initial
   implementation; any diff here is a format break, not a refactor. *)
let test_fnv_golden () =
  let h = Fnv.create () in
  Alcotest.(check string) "empty digest"
    "cbf29ce4842223259ae16a3b2f90404f" (Fnv.hex h);
  Fnv.add_int h 42;
  let after_int = Fnv.hex h in
  Fnv.add_string h "slp";
  let after_string = Fnv.hex h in
  Alcotest.(check bool) "int feeds change the digest" false
    (String.equal after_int "cbf29ce4842223259ae16a3b2f90404f");
  Alcotest.(check bool) "string feeds change the digest" false
    (String.equal after_int after_string)

let test_graph_fingerprint () =
  let t = Topology.grid 5 in
  let fp = Graph.fingerprint t.Topology.graph in
  Alcotest.(check bool) "versioned prefix" true
    (String.length fp > 3 && String.equal (String.sub fp 0 3) "g1-");
  Alcotest.(check string) "memoized value stable" fp
    (Graph.fingerprint t.Topology.graph);
  let t2 = Topology.grid 5 in
  Alcotest.(check string) "equal graphs, equal fingerprints" fp
    (Graph.fingerprint t2.Topology.graph);
  let edges = Graph.edges t.Topology.graph in
  let rebuilt = Graph.create ~n:(Graph.n t.Topology.graph) edges in
  Alcotest.(check string) "rebuild from edges agrees" fp
    (Graph.fingerprint rebuilt);
  let smaller = Graph.create ~n:(Graph.n t.Topology.graph) (List.tl edges) in
  Alcotest.(check bool) "one edge off, different fingerprint" false
    (String.equal fp (Graph.fingerprint smaller));
  Alcotest.(check bool) "different structure, different fingerprint" false
    (String.equal fp (Graph.fingerprint (Topology.grid 7).Topology.graph))

let test_schedule_digest () =
  let s = Schedule.of_alist ~n:5 ~sink:4 [ (0, 2); (1, 1); (2, 2) ] in
  let d0 = Schedule.digest s in
  Alcotest.(check bool) "versioned prefix" true
    (String.equal (String.sub d0 0 3) "s1-");
  Alcotest.(check string) "stable" d0 (Schedule.digest s);
  let c = Schedule.copy s in
  Alcotest.(check string) "copy digests equal" d0 (Schedule.digest c);
  Schedule.assign s 3 7;
  let d1 = Schedule.digest s in
  Alcotest.(check bool) "assign invalidates the memo" false
    (String.equal d0 d1);
  Alcotest.(check string) "copy unaffected by original's mutation" d0
    (Schedule.digest c);
  Schedule.clear_slot s 3;
  Alcotest.(check string) "clearing restores the original digest" d0
    (Schedule.digest s);
  let unassigned = Schedule.of_alist ~n:5 ~sink:4 [ (0, 2); (1, 1) ] in
  Alcotest.(check bool) "None slot distinct from any value" false
    (String.equal d0 (Schedule.digest unassigned))

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let canonical_request dim =
  let topo = Topology.grid dim in
  let g = topo.Topology.graph in
  let built = Das_build.build g ~sink:topo.Topology.sink in
  let attacker = Attacker.canonical ~start:topo.Topology.sink in
  let delta_ss = Topology.source_sink_distance topo in
  let sp = Safety.safety_periods ~delta_ss () in
  (topo, g, built.Das_build.schedule, attacker, sp)

let test_query_registry () =
  List.iter
    (fun name ->
      match Query.decider_of_name name with
      | Some d ->
        Alcotest.(check string) "name round-trips" name (Query.decider_name d)
      | None -> Alcotest.failf "decider %s not registered" name)
    [ "lowest-slot"; "history-avoiding"; "second-lowest" ];
  Alcotest.(check bool) "unknown name rejected" true
    (Option.is_none (Query.decider_of_name "epsilon-greedy"))

let test_query_of_request () =
  let _, g, sched, attacker, sp = canonical_request 5 in
  (match Query.of_request g sched ~attacker ~safety_period:sp ~source:0 with
  | None -> Alcotest.fail "canonical attacker must be cacheable"
  | Some q ->
    let q2 =
      Option.get (Query.of_request g sched ~attacker ~safety_period:sp ~source:0)
    in
    Alcotest.(check bool) "same request, same query" true (Query.equal q q2);
    Alcotest.(check string) "key is stable" (Query.key q) (Query.key q2);
    let q3 =
      Option.get
        (Query.of_request g sched ~attacker ~safety_period:(sp + 1) ~source:0)
    in
    Alcotest.(check bool) "safety period is part of the key" false
      (Query.equal q q3);
    let rebuilt = Query.attacker q in
    Alcotest.(check string) "attacker rebuilds with the registry name"
      "lowest-slot" rebuilt.Attacker.decide_name);
  let rng = Rng.create 7 in
  let impure =
    Attacker.make ~decide:(Attacker.random_heard rng) ~decide_name:"random"
      ~r:1 ~h:0 ~m:1 ~start:1 ()
  in
  Alcotest.(check bool) "impure decider is uncacheable" true
    (Option.is_none
       (Query.of_request g sched ~attacker:impure ~safety_period:sp ~source:0))

let test_answer_round_trip () =
  let answers =
    [
      { Query.outcome = Verifier.Safe; explored = 123 };
      {
        Query.outcome = Verifier.Captured { trace = [ 12; 7; 0 ]; periods = 4 };
        explored = 9;
      };
    ]
  in
  List.iter
    (fun a ->
      match Query.decode_answer (Query.encode_answer a) with
      | Ok b ->
        Alcotest.(check bool) "round trip" true (Query.answer_equal a b)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    answers;
  List.iter
    (fun line ->
      match Query.decode_answer line with
      | Ok _ -> Alcotest.failf "%S should not decode" line
      | Error _ -> ())
    [ ""; "safe"; "safe x"; "captured 3"; "captured 3 4"; "captured 3 4 x" ]

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let query_for_test i =
  {
    Query.graph_fp = "g1-test";
    sched_digest = Printf.sprintf "s1-%04d" i;
    r = 1;
    h = 0;
    m = 1;
    start = 0;
    decider = Query.Lowest_slot;
    safety_period = 10;
    source = 3;
  }

let answer_for_test i = { Query.outcome = Verifier.Safe; explored = i }

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c (query_for_test 0) (answer_for_test 0);
  Cache.store c (query_for_test 1) (answer_for_test 1);
  (* Touch 0 so 1 becomes the eviction victim. *)
  Alcotest.(check bool) "hit 0" true
    (Option.is_some (Cache.find c (query_for_test 0)));
  Cache.store c (query_for_test 2) (answer_for_test 2);
  Alcotest.(check bool) "1 evicted" true
    (Option.is_none (Cache.find c (query_for_test 1)));
  Alcotest.(check bool) "0 survived (recently used)" true
    (Option.is_some (Cache.find c (query_for_test 0)));
  Alcotest.(check bool) "2 present" true
    (Option.is_some (Cache.find c (query_for_test 2)));
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "stores counted" 3 s.Cache.stores

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "slp-serve-test-%d" (Unix.getpid ()))
  in
  let rec cleanup path =
    if Sys.file_exists path then begin
      if Sys.is_directory path then begin
        Array.iter
          (fun e -> cleanup (Filename.concat path e))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    end
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) (fun () -> f dir)

let test_cache_disk_round_trip () =
  with_temp_dir (fun dir ->
      let c1 = Cache.create ~dir () in
      Cache.store c1 (query_for_test 5) (answer_for_test 5);
      (* A fresh cache over the same directory serves from disk. *)
      let c2 = Cache.create ~dir () in
      (match Cache.find c2 (query_for_test 5) with
      | Some a ->
        Alcotest.(check bool) "disk answer round-trips" true
          (Query.answer_equal (answer_for_test 5) a)
      | None -> Alcotest.fail "expected a disk hit");
      let s = Cache.stats c2 in
      Alcotest.(check int) "counted as disk hit" 1 s.Cache.disk_hits;
      Alcotest.(check bool) "second read is a memory hit" true
        (Option.is_some (Cache.find c2 (query_for_test 5)));
      Alcotest.(check int) "memory hit counted" 1 (Cache.stats c2).Cache.hits)

let test_cache_disk_corruption () =
  with_temp_dir (fun dir ->
      let c1 = Cache.create ~dir () in
      Cache.store c1 (query_for_test 6) (answer_for_test 6);
      Array.iter
        (fun e ->
          let path = Filename.concat dir e in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc "slp-serve v1\ngarbage\n"))
        (Sys.readdir dir);
      let c2 = Cache.create ~dir () in
      Alcotest.(check bool) "corrupted file is a miss, not a crash" true
        (Option.is_none (Cache.find c2 (query_for_test 6))))

(* Two domains store the same key into one directory while the main domain
   reads it back through fresh caches (so every read goes to disk).  Every
   read is a complete answer or a miss, nothing raises, and once an answer
   has been seen it never disappears: a writer never exposes a file another
   writer is still filling.  Afterwards only the entry itself is left. *)
let test_cache_disk_concurrent_writers () =
  with_temp_dir (fun dir ->
      let query = query_for_test 7 and answer = answer_for_test 7 in
      let rounds = 1000 in
      let writer () =
        let c = Cache.create ~dir () in
        for _ = 1 to rounds do
          Cache.store c query answer
        done
      in
      let read () = Cache.find (Cache.create ~capacity:1 ~dir ()) query in
      let writers = List.init 2 (fun _ -> Domain.spawn writer) in
      let seen = ref false and lost = ref false and corrupt = ref false in
      for _ = 1 to 4 * rounds do
        match read () with
        | Some a ->
          if not (Query.answer_equal answer a) then corrupt := true;
          seen := true
        | None -> if !seen then lost := true
      done;
      List.iter Domain.join writers;
      Alcotest.(check bool) "no read returned a wrong answer" false !corrupt;
      Alcotest.(check bool) "no miss after a hit" false !lost;
      Alcotest.(check bool) "final read hits" true
        (match read () with Some a -> Query.answer_equal answer a | None -> false);
      Alcotest.(check int) "only the entry is left" 1 (Array.length (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Service                                                            *)
(* ------------------------------------------------------------------ *)

let test_service_caches () =
  let _, g, sched, attacker, sp = canonical_request 7 in
  let service = Service.create () in
  let direct =
    Verifier.verify_with_stats g sched ~attacker ~safety_period:sp ~source:0
  in
  let first = Service.verify_stats service g sched ~attacker ~safety_period:sp ~source:0 in
  let second = Service.verify_stats service g sched ~attacker ~safety_period:sp ~source:0 in
  Alcotest.(check outcome_testable) "service = direct" (fst direct) (fst first);
  Alcotest.(check int) "explored = direct" (snd direct) (snd first);
  Alcotest.(check outcome_testable) "warm = cold" (fst first) (fst second);
  Alcotest.(check int) "warm explored = cold" (snd first) (snd second);
  let s = Service.stats service in
  Alcotest.(check int) "two served" 2 s.Service.served;
  Alcotest.(check int) "one computed" 1 s.Service.computed;
  Alcotest.(check int) "one cache hit" 1 s.Service.cache.Cache.hits;
  (* Mutating the schedule must invalidate the digest and miss the cache. *)
  let node = if Schedule.sink sched = 0 then 1 else 0 in
  let old_slot = Schedule.slot sched node in
  Schedule.assign sched node 9999;
  let third = Service.verify_stats service g sched ~attacker ~safety_period:sp ~source:0 in
  ignore third;
  Alcotest.(check int) "mutation forces a recompute" 2
    (Service.stats service).Service.computed;
  (match old_slot with
  | Some s -> Schedule.assign sched node s
  | None -> Schedule.clear_slot sched node);
  let fourth = Service.verify_stats service g sched ~attacker ~safety_period:sp ~source:0 in
  Alcotest.(check outcome_testable) "restored schedule hits again" (fst direct)
    (fst fourth);
  Alcotest.(check int) "no extra compute after restore" 2
    (Service.stats service).Service.computed

let test_service_uncacheable () =
  let _, g, sched, _, sp = canonical_request 5 in
  let rng = Rng.create 3 in
  let impure =
    Attacker.make ~decide:(Attacker.random_heard rng) ~decide_name:"random"
      ~r:1 ~h:0 ~m:1 ~start:(Schedule.sink sched) ()
  in
  let service = Service.create () in
  ignore (Service.verify service g sched ~attacker:impure ~safety_period:sp ~source:0);
  ignore (Service.verify service g sched ~attacker:impure ~safety_period:sp ~source:0);
  let s = Service.stats service in
  Alcotest.(check int) "uncacheable requests recompute every time" 2
    s.Service.computed;
  Alcotest.(check int) "no cache traffic" 0
    (s.Service.cache.Cache.hits + s.Service.cache.Cache.misses)

(* Differential: service (cold and warm) == packed verifier == reference
   oracle, across dims, attacker budgets, registered deciders and a
   refinement (SD, CL) grid. *)
let prop_service_differential =
  QCheck.Test.make ~count:60
    ~name:"service cached == uncached == reference (dim x attacker x SD/CL)"
    QCheck.(
      pair
        (pair (int_range 5 9) (int_bound 10_000))
        (pair
           (pair (int_range 1 2) (int_bound 3))
           (pair (int_range 1 2) (pair (int_range 1 4) (int_range 1 4)))))
    (fun ((dim, seed), ((r, h), (m, (sd, cl)))) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let das = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let sched =
        match
          Slp_refine.refine ~rng:(Rng.create (seed + 1)) g ~das
            ~search_distance:sd ~change_length:cl
        with
        | Some refined -> refined.Slp_refine.refined
        | None -> das.Das_build.schedule
      in
      let decide, decide_name =
        if h > 0 then
          (Attacker.lowest_slot_avoiding_history, "history-avoiding")
        else (Attacker.lowest_slot, "lowest-slot")
      in
      let attacker =
        Attacker.make ~decide ~decide_name ~r ~h ~m ~start:topo.Topology.sink ()
      in
      let delta_ss = Topology.source_sink_distance topo in
      let sp = Safety.safety_periods ~delta_ss () in
      let source = topo.Topology.source in
      let service = Service.create () in
      let cold = Service.verify_stats service g sched ~attacker ~safety_period:sp ~source in
      let warm = Service.verify_stats service g sched ~attacker ~safety_period:sp ~source in
      let fast = Verifier.verify_with_stats g sched ~attacker ~safety_period:sp ~source in
      let reference =
        Verifier.verify_with_stats_reference g sched ~attacker ~safety_period:sp ~source
      in
      let eq (o1, n1) (o2, n2) =
        n1 = n2
        &&
        match (o1, o2) with
        | Verifier.Safe, Verifier.Safe -> true
        | ( Verifier.Captured { trace = ta; periods = pa },
            Verifier.Captured { trace = tb; periods = pb } ) ->
          pa = pb && List.equal Int.equal ta tb
        | _ -> false
      in
      eq cold warm && eq cold fast && eq fast reference
      && (Service.stats service).Service.computed = 1)

(* ------------------------------------------------------------------ *)
(* Incremental re-verification                                        *)
(* ------------------------------------------------------------------ *)

let check_reverify_matches_full ~msg g old_sched new_sched ~attacker
    ~safety_period ~source =
  let baseline =
    Verifier.verify_certified g old_sched ~attacker ~safety_period ~source
  in
  let changed = Verifier.changed_slots old_sched new_sched in
  let incremental, how =
    Verifier.reverify g new_sched ~baseline ~changed ~attacker ~safety_period
      ~source
  in
  let full =
    Verifier.verify g new_sched ~attacker ~safety_period ~source
  in
  Alcotest.(check outcome_testable) msg full incremental;
  how

let test_reverify_identity () =
  let _, g, sched, attacker, sp = canonical_request 7 in
  let how =
    check_reverify_matches_full ~msg:"identical schedule" g sched
      (Schedule.copy sched) ~attacker ~safety_period:sp ~source:0
  in
  (match how with
  | Verifier.Unchanged -> ()
  | _ -> Alcotest.fail "no delta must short-circuit to Unchanged")

let test_reverify_remote_edit () =
  (* Edit a corner far from everything the canonical attacker explores:
     the certificate is untouched and the verdict stands without work. *)
  let topo = Topology.grid 9 in
  let g = topo.Topology.graph in
  let das = Das_build.build g ~sink:topo.Topology.sink in
  let sched = das.Das_build.schedule in
  let attacker = Attacker.canonical ~start:topo.Topology.sink in
  let sp = Safety.safety_periods ~delta_ss:(Topology.source_sink_distance topo) () in
  let baseline =
    Verifier.verify_certified g sched ~attacker ~safety_period:sp
      ~source:topo.Topology.source
  in
  let visited_locs =
    Array.to_list (Array.map (fun st -> st.Verifier.loc) baseline.Verifier.cert_visited)
  in
  (* Pick an assigned node whose closed neighbourhood avoids every visited
     location. *)
  let candidate =
    Graph.fold_vertices
      (fun v acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let closed = v :: Array.to_list (Graph.neighbours g v) in
          if
            Option.is_some (Schedule.slot sched v)
            && List.for_all
                 (fun u -> not (List.exists (Int.equal u) visited_locs))
                 closed
          then Some v
          else None)
      g None
  in
  match candidate with
  | None -> () (* every node near the explored set: nothing to assert *)
  | Some v ->
    let edited = Schedule.copy sched in
    Schedule.assign edited v 12345;
    let how =
      check_reverify_matches_full ~msg:"remote edit" g sched edited ~attacker
        ~safety_period:sp ~source:topo.Topology.source
    in
    (match how with
    | Verifier.Unchanged -> ()
    | _ -> Alcotest.fail "edit outside the certificate must be Unchanged")

let test_reverify_fault_plan () =
  (* Seeded fault plan -> masked schedule -> incremental equals full. *)
  List.iter
    (fun (dim, plan_text, seed) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let das = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let sched = das.Das_build.schedule in
      let plan =
        match Fault_plan.of_string plan_text with
        | Ok p -> p
        | Error e -> Alcotest.failf "plan: %s" e
      in
      let ops = Fault_plan.compile ~protect:[ topo.Topology.source ] ~topology:topo ~seed plan in
      let failed = Array.make (Graph.n g) false in
      List.iter
        (fun (o : Fault_plan.resolved) ->
          match o.Fault_plan.op with
          | Fault_plan.Fail v -> failed.(v) <- true
          | Fault_plan.Restart v -> failed.(v) <- false
          | _ -> ())
        ops;
      let masked = Resilience.masked_schedule sched ~failed in
      let attacker = Attacker.canonical ~start:topo.Topology.sink in
      let sp =
        Safety.safety_periods ~delta_ss:(Topology.source_sink_distance topo) ()
      in
      ignore
        (check_reverify_matches_full
           ~msg:(Printf.sprintf "fault plan %s on %dx%d" plan_text dim dim) g
           sched masked ~attacker ~safety_period:sp
           ~source:topo.Topology.source))
    [
      (7, "crash@200:k=3", 11);
      (7, "crash@200:k=8", 42);
      (9, "crash@150:k=5;revive@300:all;crash@350:k=2", 7);
      (9, "crash@100:region=0,0,4,4", 3);
    ]

(* Random local perturbations across attacker budgets: incremental must
   agree with full on every case, Safe or Captured, cacheable or not. *)
let prop_reverify_differential =
  QCheck.Test.make ~count:80
    ~name:"incremental reverify == full verify (random slot edits)"
    QCheck.(
      pair
        (pair (int_range 5 9) (int_bound 10_000))
        (pair (pair (int_range 1 2) (int_bound 2)) (int_range 1 6)))
    (fun ((dim, seed), ((r, h), edits)) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let das = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let sched = das.Das_build.schedule in
      let attacker =
        Attacker.make
          ~decide:
            (if h > 0 then Attacker.lowest_slot_avoiding_history
             else Attacker.lowest_slot)
          ~decide_name:(if h > 0 then "history-avoiding" else "lowest-slot")
          ~r ~h ~m:1 ~start:topo.Topology.sink ()
      in
      let sp =
        Safety.safety_periods ~delta_ss:(Topology.source_sink_distance topo) ()
      in
      let source = topo.Topology.source in
      let baseline =
        Verifier.verify_certified g sched ~attacker ~safety_period:sp ~source
      in
      let rng = Rng.create (seed + 17) in
      let edited = Schedule.copy sched in
      for _ = 1 to edits do
        let v = Rng.int rng (Graph.n g) in
        if v <> Schedule.sink edited then begin
          if Rng.bool rng then Schedule.assign edited v (Rng.int rng 120)
          else Schedule.clear_slot edited v
        end
      done;
      let changed = Verifier.changed_slots sched edited in
      let incremental, _ =
        Verifier.reverify g edited ~baseline ~changed ~attacker
          ~safety_period:sp ~source
      in
      let full = Verifier.verify g edited ~attacker ~safety_period:sp ~source in
      match (incremental, full) with
      | Verifier.Safe, Verifier.Safe -> true
      | ( Verifier.Captured { trace = ta; periods = pa },
          Verifier.Captured { trace = tb; periods = pb } ) ->
        pa = pb && List.equal Int.equal ta tb
      | _ -> false)

let test_service_reverify () =
  let topo = Topology.grid 7 in
  let g = topo.Topology.graph in
  let das = Das_build.build g ~sink:topo.Topology.sink in
  let sched = das.Das_build.schedule in
  let attacker = Attacker.canonical ~start:topo.Topology.sink in
  let sp = Safety.safety_periods ~delta_ss:(Topology.source_sink_distance topo) () in
  let source = topo.Topology.source in
  let service = Service.create () in
  let cert = Service.verify_certified service g sched ~attacker ~safety_period:sp ~source in
  let full = Verifier.verify g sched ~attacker ~safety_period:sp ~source in
  Alcotest.(check outcome_testable) "certified outcome = verify" full
    cert.Verifier.cert_outcome;
  let edited = Schedule.copy sched in
  let victim = List.hd (List.filter (fun v -> v <> Schedule.sink sched && Option.is_some (Schedule.slot sched v)) (List.init (Graph.n g) Fun.id)) in
  Schedule.assign edited victim 1;
  let outcome, _how =
    Service.reverify service g ~prev:sched edited ~attacker ~safety_period:sp ~source
  in
  let full_edited = Verifier.verify g edited ~attacker ~safety_period:sp ~source in
  Alcotest.(check outcome_testable) "service reverify = full" full_edited outcome;
  (* Replaying the same reverify must be answered (Cached or recomputed)
     with the same outcome. *)
  let outcome2, _ =
    Service.reverify service g ~prev:sched edited ~attacker ~safety_period:sp ~source
  in
  Alcotest.(check outcome_testable) "replay agrees" full_edited outcome2

(* ------------------------------------------------------------------ *)
(* Batch                                                              *)
(* ------------------------------------------------------------------ *)

let batch_items () =
  let topo5 = Topology.grid 5 and topo7 = Topology.grid 7 in
  let make ?(extra_period = 0) topo seed =
    let g = topo.Topology.graph in
    let das = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
    {
      Batch.graph = g;
      schedule = das.Das_build.schedule;
      attacker = Attacker.canonical ~start:topo.Topology.sink;
      safety_period =
        extra_period
        + Safety.safety_periods
            ~delta_ss:(Topology.source_sink_distance topo) ();
      source = topo.Topology.source;
    }
  in
  let a = make topo5 1 in
  let b = make topo7 2 in
  let c = make ~extra_period:1 topo7 2 in
  (* Duplicates interleaved: dedup must still answer every position. *)
  [ a; b; a; c; b; a ]

let test_batch_order_and_dedup () =
  let items = batch_items () in
  let service = Service.create () in
  let answers = Batch.run_many service items in
  Alcotest.(check int) "one answer per item" (List.length items)
    (List.length answers);
  let expected =
    List.map
      (fun (it : Batch.item) ->
        let outcome, explored =
          Verifier.verify_with_stats it.Batch.graph it.Batch.schedule
            ~attacker:it.Batch.attacker ~safety_period:it.Batch.safety_period
            ~source:it.Batch.source
        in
        { Query.outcome; explored })
      items
  in
  List.iteri
    (fun i (want, got) ->
      Alcotest.(check bool)
        (Printf.sprintf "answer %d matches sequential verify" i)
        true
        (Query.answer_equal want got))
    (List.combine expected answers);
  Alcotest.(check int) "only distinct queries computed" 3
    (Service.stats service).Service.computed

let test_batch_domains_invariant () =
  let items = batch_items () in
  let run domains =
    let service = Service.create () in
    Batch.run_many ~domains service items
  in
  let one = run 1 and two = run 2 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "answer %d identical at domains 1 vs 2" i)
        true (Query.answer_equal a b))
    (List.combine one two)

let test_batch_warm_cache_skips_pool () =
  let items = batch_items () in
  let service = Service.create () in
  ignore (Batch.run_many service items);
  let computed_cold = (Service.stats service).Service.computed in
  let answers = Batch.run_many service items in
  Alcotest.(check int) "warm batch computes nothing" computed_cold
    (Service.stats service).Service.computed;
  Alcotest.(check int) "warm batch still answers everything"
    (List.length items) (List.length answers)

(* ------------------------------------------------------------------ *)
(* Tuner                                                              *)
(* ------------------------------------------------------------------ *)

let tuner_fixture () =
  let topo = Topology.grid 7 in
  let g = topo.Topology.graph in
  (* A seeded build: the deterministic builder's tree leaves Slp_refine no
     alternate parents, making every tuner point infeasible. *)
  let das = Das_build.build ~rng:(Rng.create 9) g ~sink:topo.Topology.sink in
  let attacker = Attacker.canonical ~start:topo.Topology.sink in
  let delta_ss = Topology.source_sink_distance topo in
  (topo, g, das, attacker, delta_ss)

let test_tuner_deterministic () =
  let topo, g, das, attacker, delta_ss = tuner_fixture () in
  let run () =
    let service = Service.create () in
    Tuner.tune ~seed:5 service g ~das ~attacker ~source:topo.Topology.source
      ~delta_ss ~budget_joules:1.0
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same number of evals" (List.length a.Tuner.evals)
    (List.length b.Tuner.evals);
  List.iteri
    (fun i (ea, eb) ->
      Alcotest.(check bool)
        (Printf.sprintf "eval %d identical" i)
        true
        (ea.Tuner.point.Tuner.sd = eb.Tuner.point.Tuner.sd
        && ea.Tuner.point.Tuner.cl = eb.Tuner.point.Tuner.cl
        && ea.Tuner.delta = eb.Tuner.delta
        && Float.equal ea.Tuner.energy_joules eb.Tuner.energy_joules))
    (List.combine a.Tuner.evals b.Tuner.evals);
  match (a.Tuner.best, b.Tuner.best) with
  | None, None -> ()
  | Some (ea, sa), Some (eb, sb) ->
    Alcotest.(check int) "same best sd" ea.Tuner.point.Tuner.sd
      eb.Tuner.point.Tuner.sd;
    Alcotest.(check int) "same best cl" ea.Tuner.point.Tuner.cl
      eb.Tuner.point.Tuner.cl;
    Alcotest.(check bool) "same best schedule" true (Schedule.equal sa sb)
  | _ -> Alcotest.fail "best presence differs between equal runs"

let test_tuner_budget_and_delta () =
  let topo, g, das, attacker, delta_ss = tuner_fixture () in
  let service = Service.create () in
  let generous =
    Tuner.tune ~seed:1 service g ~das ~attacker ~source:topo.Topology.source
      ~delta_ss ~budget_joules:10.0
  in
  (match generous.Tuner.best with
  | None -> Alcotest.fail "a 10 J budget must afford some refinement"
  | Some (e, sched) ->
    Alcotest.(check bool) "within budget" true e.Tuner.within_budget;
    Alcotest.(check bool) "feasible" true e.Tuner.feasible;
    (* The reported delta must match the capture-time ground truth. *)
    let cap = 2 * (delta_ss + 1) in
    let want =
      match
        Verifier.capture_time g sched ~attacker ~source:topo.Topology.source
          ~limit:cap
      with
      | Some (p, _) -> p
      | None -> cap + 1
    in
    Alcotest.(check int) "delta = certified capture time" want e.Tuner.delta);
  let broke =
    Tuner.tune ~seed:1 (Service.create ()) g ~das ~attacker
      ~source:topo.Topology.source ~delta_ss ~budget_joules:0.0
  in
  (match broke.Tuner.best with
  | None -> ()
  | Some (e, _) ->
    Alcotest.failf "zero budget returned a plan costing %g J"
      e.Tuner.energy_joules);
  (* The cached service makes the second tune cheap: every query the
     generous run issued is already answered. *)
  let before = (Service.stats service).Service.computed in
  let again =
    Tuner.tune ~seed:1 service g ~das ~attacker ~source:topo.Topology.source
      ~delta_ss ~budget_joules:10.0
  in
  Alcotest.(check int) "re-tuning a warm service verifies nothing" before
    (Service.stats service).Service.computed;
  Alcotest.(check int) "and finds the same answer"
    (List.length generous.Tuner.evals)
    (List.length again.Tuner.evals)

let () =
  Alcotest.run "serve"
    [
      ( "digests",
        [
          Alcotest.test_case "fnv framing" `Quick test_fnv_framing;
          Alcotest.test_case "fnv golden" `Quick test_fnv_golden;
          Alcotest.test_case "graph fingerprint" `Quick test_graph_fingerprint;
          Alcotest.test_case "schedule digest" `Quick test_schedule_digest;
        ] );
      ( "query",
        [
          Alcotest.test_case "decider registry" `Quick test_query_registry;
          Alcotest.test_case "of_request" `Quick test_query_of_request;
          Alcotest.test_case "answer round trip" `Quick test_answer_round_trip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "disk round trip" `Quick test_cache_disk_round_trip;
          Alcotest.test_case "disk corruption" `Quick test_cache_disk_corruption;
          Alcotest.test_case "concurrent disk writers" `Quick
            test_cache_disk_concurrent_writers;
        ] );
      ( "service",
        [
          Alcotest.test_case "caches answers" `Quick test_service_caches;
          Alcotest.test_case "uncacheable attackers" `Quick test_service_uncacheable;
          QCheck_alcotest.to_alcotest prop_service_differential;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "identity edit" `Quick test_reverify_identity;
          Alcotest.test_case "remote edit" `Quick test_reverify_remote_edit;
          Alcotest.test_case "fault plans" `Quick test_reverify_fault_plan;
          QCheck_alcotest.to_alcotest prop_reverify_differential;
          Alcotest.test_case "service reverify" `Quick test_service_reverify;
        ] );
      ( "batch",
        [
          Alcotest.test_case "order and dedup" `Quick test_batch_order_and_dedup;
          Alcotest.test_case "domains invariant" `Quick test_batch_domains_invariant;
          Alcotest.test_case "warm cache" `Quick test_batch_warm_cache_skips_pool;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "deterministic" `Quick test_tuner_deterministic;
          Alcotest.test_case "budget and delta" `Quick test_tuner_budget_and_delta;
        ] );
    ]
