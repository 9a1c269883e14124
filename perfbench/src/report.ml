(* Result assembly: named metrics with units and sample counts, printed for
   people, written in full under .perfbench/, and summarised on the last
   stdout line as one JSON object: correct, attempted, failed, metrics. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = Printf.sprintf "\"%s\"" (String.escaped s)

type t = {
  workload : string;
  seed : int;
  trace : bool;
  seconds : float;
  metrics : metric list;
  extras : metric list;  (** printed and kept in the full result only *)
  aliases : (string * string) list;
      (** the workload-specific name of a generic metric, e.g. serve_qps *)
  notes : string list;
  check : Check.t;
}

let find r name =
  List.find_opt (fun m -> String.equal m.name name) (r.metrics @ r.extras)

let result_line r =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      r.metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (Check.correct r.check && List.for_all (fun m -> Float.is_finite m.value) r.metrics)
    (max 1 r.check.Check.attempted) r.check.Check.failed (String.concat "," ms)

let full_json r ~host =
  let b = Buffer.create 4096 in
  let field k v = Printf.bprintf b "  %s: %s,\n" (json_string k) v in
  Buffer.add_string b "{\n";
  field "workload" (json_string r.workload);
  field "seed" (string_of_int r.seed);
  field "trace" (string_of_bool r.trace);
  field "run_seconds" (json_float r.seconds);
  List.iter (fun (k, v) -> field k (json_string v)) host;
  field "aliases"
    ("{"
    ^ String.concat ","
        (List.map (fun (a, m) -> json_string a ^ ":" ^ json_string m) r.aliases)
    ^ "}");
  field "notes" ("[" ^ String.concat "," (List.map json_string r.notes) ^ "]");
  field "problems"
    ("[" ^ String.concat "," (List.map json_string (Check.problems r.check)) ^ "]");
  Printf.bprintf b "  \"metrics\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun m ->
            Printf.sprintf "    {\"name\":%s,\"value\":%s,\"unit\":%s,\"samples\":%d}"
              (json_string m.name) (json_float m.value) (json_string m.unit_)
              m.samples)
          (r.metrics @ r.extras)));
  Buffer.contents b

let print r ~host =
  Printf.printf "# perfbench %s seed=%d trace=%d run_seconds=%g\n" r.workload
    r.seed (if r.trace then 1 else 0) r.seconds;
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) host;
  List.iter (fun n -> Printf.printf "# note: %s\n" n) r.notes;
  List.iter
    (fun m ->
      Printf.printf "%-40s %16.6g %-12s n=%d\n" m.name m.value m.unit_ m.samples)
    (r.metrics @ r.extras);
  List.iter
    (fun (alias, name) ->
      match find r name with
      | Some m ->
        Printf.printf "%-40s %16.6g %-12s n=%d  (= %s)\n" alias m.value m.unit_
          m.samples name
      | None -> ())
    r.aliases;
  let c = r.check in
  Printf.printf "%-40s %16.6g %-12s n=%d  (failed %d of %d operations)\n"
    "op_fail_ratio"
    (ratio (float_of_int c.Check.failed) (float_of_int (max 1 c.Check.attempted)))
    "ratio" c.Check.attempted c.Check.failed c.Check.attempted;
  List.iter (fun p -> Printf.printf "# PROBLEM: %s\n" p) (Check.problems c);
  print_endline (result_line r)
