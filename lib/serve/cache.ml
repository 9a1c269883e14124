type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;
}

module type CODEC = sig
  type query

  val key : query -> string

  type answer

  val encode : answer -> string
  val decode : string -> (answer, string) result
  val header : string
end

module type S = sig
  type query
  type answer
  type t

  val create : ?capacity:int -> ?dir:string -> unit -> t
  val find : t -> query -> answer option
  val store : t -> query -> answer -> unit
  val stats : t -> stats
end

let rec ensure_dir d =
  if (not (String.equal d "")) && not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if not (String.equal parent d) then ensure_dir parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

module Make (C : CODEC) = struct
  type query = C.query

  type answer = C.answer

  type entry = { answer : C.answer; mutable stamp : int }

  type t = {
    capacity : int;
    dir : string option;
    table : (string, entry) Hashtbl.t;
    (* Recency queue with lazy deletion: every touch pushes (key, stamp); a
       popped record is authoritative only if its stamp still matches the
       entry's.  Keeps both touch and eviction O(1) amortised without a
       doubly-linked list. *)
    queue : (string * int) Queue.t;
    mutable clock : int;
    mutable hits : int;
    mutable disk_hits : int;
    mutable misses : int;
    mutable stores : int;
    mutable evictions : int;
  }

  let create ?(capacity = 4096) ?dir () =
    if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
    Option.iter ensure_dir dir;
    {
      capacity;
      dir;
      table = Hashtbl.create (min capacity 1024);
      queue = Queue.create ();
      clock = 0;
      hits = 0;
      disk_hits = 0;
      misses = 0;
      stores = 0;
      evictions = 0;
    }

  let touch t key entry =
    t.clock <- t.clock + 1;
    entry.stamp <- t.clock;
    Queue.push (key, t.clock) t.queue

  let evict t =
    while Hashtbl.length t.table > t.capacity do
      match Queue.take_opt t.queue with
      | None -> Hashtbl.reset t.table (* unreachable: every entry is queued *)
      | Some (key, stamp) ->
        (match Hashtbl.find_opt t.table key with
        | Some entry when entry.stamp = stamp ->
          Hashtbl.remove t.table key;
          t.evictions <- t.evictions + 1
        | _ -> ())
    done

  let insert t key answer =
    (match Hashtbl.find_opt t.table key with
    | Some entry -> touch t key entry
    | None ->
      let entry = { answer; stamp = 0 } in
      touch t key entry;
      Hashtbl.replace t.table key entry;
      evict t);
    ()

  let path_of t key =
    Option.map
      (fun dir ->
        let h = Slpdas_util.Fnv.create () in
        Slpdas_util.Fnv.add_string h key;
        Filename.concat dir (Slpdas_util.Fnv.hex h ^ ".ans"))
      t.dir

  let disk_read t key =
    match path_of t key with
    | None -> None
    | Some path ->
      if not (Sys.file_exists path) then None
      else begin
        match
          In_channel.with_open_text path (fun ic ->
              let header = In_channel.input_line ic in
              let stored_key = In_channel.input_line ic in
              let body = In_channel.input_line ic in
              (header, stored_key, body))
        with
        | Some header, Some stored_key, Some body
          when String.equal header C.header && String.equal stored_key key -> (
          match C.decode body with
          | Ok answer -> Some answer
          | Error _ -> None)
        | _ -> None
        | exception Sys_error _ -> None
      end

  let disk_write t key answer =
    match path_of t key with
    | None -> ()
    | Some path -> (
      (* Each write goes to its own freshly created temp file in the same
         directory, then is renamed into place.  Concurrent writers of one
         key (domains or processes) never share a temp file, and the rename
         is atomic, so a reader sees either no entry or a complete one. *)
      match
        Filename.temp_file ~temp_dir:(Filename.dirname path)
          (Filename.basename path) ".tmp"
      with
      | exception Sys_error _ -> ()
      | tmp -> (
        try
          Out_channel.with_open_text tmp (fun oc ->
              Out_channel.output_string oc C.header;
              Out_channel.output_char oc '\n';
              Out_channel.output_string oc key;
              Out_channel.output_char oc '\n';
              Out_channel.output_string oc (C.encode answer);
              Out_channel.output_char oc '\n');
          Sys.rename tmp path
        with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())))

  let find t query =
    let key = C.key query in
    match Hashtbl.find_opt t.table key with
    | Some entry ->
      t.hits <- t.hits + 1;
      touch t key entry;
      Some entry.answer
    | None ->
      (match disk_read t key with
      | Some answer ->
        t.disk_hits <- t.disk_hits + 1;
        insert t key answer;
        Some answer
      | None ->
        t.misses <- t.misses + 1;
        None)

  let store t query answer =
    let key = C.key query in
    t.stores <- t.stores + 1;
    insert t key answer;
    disk_write t key answer

  let stats t =
    {
      hits = t.hits;
      disk_hits = t.disk_hits;
      misses = t.misses;
      stores = t.stores;
      evictions = t.evictions;
    }
end

(* The classic verification-answer cache: the functor applied to the exact
   [Query] codec (same key format, same "slp-serve v1" file header), so
   every pre-existing cache directory stays readable. *)
include Make (struct
  type query = Query.t

  let key = Query.key

  type answer = Query.answer

  let encode = Query.encode_answer
  let decode = Query.decode_answer
  let header = "slp-serve v1"
end)
