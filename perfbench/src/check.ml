(* Output checks behind [correct], [attempted] and [failed].

   Every operation emits keyed output lines ("<key> <fields…>").  For the
   default seed a line whose key appears in the stored expected file must
   equal it byte for byte; for every seed the workloads also assert
   seed-independent invariants.  An operation fails when it raises or when
   any of its lines or invariants fails. *)

let default_seed = 1

type t = {
  expected : (string, string) Hashtbl.t option;
  mutable produced : string list;  (** newest first *)
  mutable compared : int;  (** lines matched against an expected line *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first, capped *)
  mutable op_ok : bool;  (** no failure since the current operation began *)
  mutable in_op : bool;
}

let key_of line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_expected lines =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l -> if l <> "" && l.[0] <> '#' then Hashtbl.replace tbl (key_of l) l)
    lines;
  tbl

let create ~expected =
  {
    expected = Option.map parse_expected expected;
    produced = [];
    compared = 0;
    attempted = 0;
    failed = 0;
    problems = [];
    op_ok = true;
    in_op = false;
  }

let max_problems = 20

(* A failure inside an operation fails the operation; one outside any
   (a check over a whole pass or run) counts as one failed check. *)
let fail t msg =
  if List.length t.problems < max_problems then t.problems <- msg :: t.problems;
  if t.in_op then t.op_ok <- false
  else begin
    t.failed <- t.failed + 1;
    t.attempted <- t.attempted + 1
  end

let invariant t ok msg = if not ok then fail t ("invariant: " ^ msg)

let line t l =
  t.produced <- l :: t.produced;
  match t.expected with
  | None -> ()
  | Some tbl -> (
    match Hashtbl.find_opt tbl (key_of l) with
    | None -> ()
    | Some e ->
      t.compared <- t.compared + 1;
      if not (String.equal e l) then
        fail t (Printf.sprintf "expected %S, got %S" e l))

(* [op t ~count f] runs one operation (or [count] batched ones, e.g. the
   lines of a batch query) and charges it as failed if [f] raises or any
   check inside it fails. *)
let op ?(count = 1) t f =
  t.attempted <- t.attempted + count;
  t.op_ok <- true;
  t.in_op <- true;
  let r =
    match f () with
    | r -> Some r
    | exception e ->
      fail t ("raised " ^ Printexc.to_string e);
      None
  in
  t.in_op <- false;
  if not t.op_ok then t.failed <- t.failed + count;
  r

(* Checks that run outside any operation (e.g. comparing two passes) but
   still make the run incorrect. *)
let global t ok msg = if not ok then fail t ("run: " ^ msg)

let correct t =
  t.failed = 0
  && (match t.expected with None -> true | Some _ -> t.compared > 0)

let problems t =
  let ps = List.rev t.problems in
  match t.expected with
  | Some _ when t.compared = 0 -> "no output line matched an expected key" :: ps
  | _ -> ps

let produced t = List.rev t.produced

(* Relative to the checkout root, where the benchmark runs. *)
let expected_path workload =
  Filename.concat (Filename.concat "perfbench" "expected") (workload ^ ".txt")

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []
