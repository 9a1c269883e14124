(* Self-tests of the benchmark's own checks: the stored expected output
   catches a single perturbed value, inside or outside an operation, and
   BENCHMARK.json names exactly the metrics the benchmark reports. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let expected_file = Check.expected_path "fig5_sweep"

(* The first [n] fig5_sweep operations at the default seed, checked against
   [expected]; returns the check. *)
let sweep_check expected n =
  let seed = Check.default_seed in
  let input = Sweep.setup ~seed () in
  let check = Check.create ~expected:(Some expected) in
  for i = 0 to n - 1 do
    let topology, tname, mode, run_seed = Sweep.op input ~seed i in
    ignore
      (Check.op check (fun () ->
           Check.line check
             (Sweep.detail_line i tname mode (Sweep.centralized topology mode run_seed))))
  done;
  check

(* Change the first "captured=<bool>" field of line [key] in [lines]. *)
let perturb lines key =
  let flip l =
    let field v = "captured=" ^ string_of_bool v in
    let swap from into =
      let i = ref (-1) in
      String.iteri
        (fun j _ ->
          if !i < 0 && j + String.length from <= String.length l
             && String.sub l j (String.length from) = from
          then i := j)
        l;
      if !i < 0 then None
      else
        Some
          (String.sub l 0 !i ^ into
          ^ String.sub l (!i + String.length from)
              (String.length l - !i - String.length from))
    in
    match swap (field true) (field false) with
    | Some l -> l
    | None -> (
      match swap (field false) (field true) with
      | Some l -> l
      | None -> fail "no captured= field in %S" l)
  in
  List.map (fun l -> if Check.key_of l = key then flip l else l) lines

let test_expected_output () =
  let lines = Check.read_lines expected_file in
  let ops = 4 in
  let c = sweep_check lines ops in
  if not (Check.correct c) then
    fail "stored expected output does not match: %s"
      (String.concat "; " (Check.problems c));
  if c.Check.compared <> ops then fail "compared %d lines, wanted %d" c.Check.compared ops;
  let c = sweep_check (perturb lines "sweep.2") ops in
  if Check.correct c then fail "a perturbed expected value went unnoticed";
  if c.Check.failed <> 1 then fail "perturbing one line failed %d operations" c.Check.failed

(* A line checked outside any operation (a serve pass summary) still
   makes the run incorrect when it differs from the expected one. *)
let test_line_outside_op () =
  let c = Check.create ~expected:(Some [ "serve.stream answers=a" ]) in
  Check.line c "serve.stream answers=b";
  if Check.correct c then fail "a wrong line outside an operation went unnoticed"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_benchmark_json_names () =
  let json = String.concat "\n" (Check.read_lines "BENCHMARK.json") in
  List.iter
    (fun name ->
      if not (contains json (Printf.sprintf "\"name\": \"%s\"" name)) then
        fail "BENCHMARK.json does not list metric %s" name)
    (E2e.names @ List.map (fun (n, _, _) -> n) Layers.table)

let () =
  test_expected_output ();
  test_line_outside_op ();
  test_benchmark_json_names ();
  print_endline "perfbench self-test: ok"
