(* Spans recorded from outside the program, around calls into its layers.

   Spans are kept in memory and written out when the run ends.  A span's
   self time is its duration minus the part covered by its child spans.
   Boundaries crossed millions of times per run (protocol handlers) are not
   spans: {!Counted} accumulates them as per-layer sums and counts. *)

type span = {
  id : int;
  name : string;
  op : int;  (** the operation (DES run, sweep seed, query) it belongs to *)
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable finished : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (** ids of the spans being recorded, innermost first *)
}

let create () = { finished = []; next_id = 0; open_ = [] }

let span t ~op name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_ns = Clock.now_ns () in
  let close () =
    let stop_ns = Clock.now_ns () in
    t.open_ <- List.tl t.open_;
    t.finished <- { id; name; op; parent; start_ns; stop_ns } :: t.finished
  in
  match f () with
  | r ->
    close ();
    r
  | exception e ->
    close ();
    raise e

(* [span_opt] records only when a trace is given, so one code path serves
   the traced and the untraced run. *)
let span_opt t ~op name f =
  match t with None -> f () | Some t -> span t ~op name f

let spans t = List.rev t.finished

type totals = { count : int; total_s : float; self_s : float }

let duration s = s.stop_ns - s.start_ns

(* Per-name count, total and self time. *)
let totals t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    t.finished;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = duration s in
      let self = d - Option.value ~default:0 (Hashtbl.find_opt children s.id) in
      let c, tot, slf =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (c + 1, tot + d, slf + self))
    t.finished;
  fun name ->
    match Hashtbl.find_opt by_name name with
    | None -> { count = 0; total_s = 0.0; self_s = 0.0 }
    | Some (c, tot, slf) ->
      { count = c; total_s = Clock.seconds tot; self_s = Clock.seconds slf }

(* Wall time covered by top-level spans. *)
let top_level_s t =
  Clock.seconds
    (List.fold_left
       (fun acc s -> if s.parent < 0 then acc + duration s else acc)
       0 t.finished)

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.op s.parent s.start_ns s.stop_ns)
    (spans t);
  close_out oc
