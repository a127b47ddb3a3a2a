(* Minimal SARIF 2.1.0 emitter shared by rodcheck and `rod_cli analyze`.
   Hand-rolled JSON, matching the style of Plan_check.to_json — the
   repo deliberately carries no JSON dependency. *)

type result = {
  rule_id : string;
  level : string;
  message : string;
  file : string option;
  line : int option;
  col : int option;
}

type rule = { id : string; short_desc : string; help_uri : string }
type run = { tool : string; rules : rule list; results : result list }

let rule ?(help_uri = "") id short_desc = { id; short_desc; help_uri }

let rules_of_catalogue ~help_uri catalogue =
  List.map (fun (id, short_desc) -> { id; short_desc; help_uri }) catalogue

let escape s =
  let buffer = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let to_string runs =
  let buffer = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let run_object { tool; rules; results } =
    out "    {\n";
    out "      \"tool\": {\n        \"driver\": {\n";
    out "          \"name\": \"%s\",\n" (escape tool);
    out "          \"version\": \"1.0.0\"";
    if rules <> [] then begin
      out ",\n          \"rules\": [\n";
      List.iteri
        (fun idx r ->
          out "            { \"id\": \"%s\"" (escape r.id);
          if r.short_desc <> "" then
            out ", \"shortDescription\": { \"text\": \"%s\" }"
              (escape r.short_desc);
          if r.help_uri <> "" then
            out ", \"helpUri\": \"%s\"" (escape r.help_uri);
          out " }%s\n" (if idx = List.length rules - 1 then "" else ","))
        rules;
      out "          ]\n"
    end
    else out "\n";
    out "        }\n      },\n";
    out "      \"results\": [\n";
    List.iteri
      (fun idx r ->
        out "        {\n";
        out "          \"ruleId\": \"%s\",\n" (escape r.rule_id);
        out "          \"level\": \"%s\",\n" (escape r.level);
        out "          \"message\": { \"text\": \"%s\" }" (escape r.message);
        (match r.file with
        | None -> ()
        | Some file ->
          out ",\n          \"locations\": [\n";
          out "            { \"physicalLocation\": {\n";
          out "                \"artifactLocation\": { \"uri\": \"%s\" }"
            (escape file);
          (match r.line with
          | None -> ()
          | Some line ->
            (* SARIF regions are 1-based in both coordinates; the repo's
               diag columns are 0-based compiler columns. *)
            out ",\n                \"region\": { \"startLine\": %d" line;
            (match r.col with
            | None -> ()
            | Some col -> out ", \"startColumn\": %d" (col + 1));
            out " }");
          out "\n              }\n            }\n          ]");
        out "\n        }%s\n" (if idx = List.length results - 1 then "" else ","))
      results;
    out "      ]\n    }"
  in
  out "{\n";
  out "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out "  \"version\": \"2.1.0\",\n";
  out "  \"runs\": [\n";
  List.iteri
    (fun idx run ->
      if idx > 0 then out ",\n";
      run_object run)
    runs;
  out "\n  ]\n}\n";
  Buffer.contents buffer

let write ~path runs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string runs))
