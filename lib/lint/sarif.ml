(* SARIF 2.1.0 renderer — the interchange format CI annotation surfaces
   (GitHub code scanning and friends) ingest.  One run, one tool, one
   result per diagnostic.  SARIF columns are 1-based; our columns follow
   the compiler's 0-based convention, hence the +1. *)

let q = Diagnostic.json_string

let rule_descriptor (r : Rules.t) =
  Printf.sprintf
    "{\"id\":%s,\"shortDescription\":{\"text\":%s}}"
    (q r.Rules.name) (q r.Rules.summary)

let result (d : Diagnostic.t) =
  Printf.sprintf
    "{\"ruleId\":%s,\"level\":\"error\",\"message\":{\"text\":%s},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
    (q d.Diagnostic.rule) (q d.Diagnostic.message) (q d.Diagnostic.file)
    d.Diagnostic.line (d.Diagnostic.col + 1)

let render ~rules diagnostics =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"slp-lint\",\"rules\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (rule_descriptor r))
    rules;
  Buffer.add_string b "]}},\"results\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (result d))
    diagnostics;
  Buffer.add_string b "]}]}\n";
  Buffer.contents b
