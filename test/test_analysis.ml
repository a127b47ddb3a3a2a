(* Tests of the static-analysis layer: every Plan_check diagnostic on
   a minimal failing plan plus a clean plan with zero diagnostics, and
   the rodlint rules on fixture sources (one violating and one
   conforming file per rule family). *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Plan_check = Analysis.Plan_check
module Lint = Analysis.Lint
module Allowlist = Analysis.Allowlist
module Check = Analysis.Check
module Sarif = Analysis.Sarif
module Scan = Analysis.Scan

let codes report = List.map (fun d -> d.Plan_check.code) report.Plan_check.diags

let has_code code report = List.mem code (codes report)

let check ?threshold ?expect_vars rows caps =
  Plan_check.check_matrix ?threshold ?expect_vars ~lo:(Mat.of_arrays rows)
    ~caps:(Vec.of_list caps) ()

(* --- Plan_check: one minimal failing plan per diagnostic --- *)

let test_clean_plan () =
  let report = check [| [| 0.1; 0. |]; [| 0.; 0.1 |] |] [ 1.; 1. ] in
  Alcotest.(check bool) "ok" true (Plan_check.ok report);
  Alcotest.(check int) "zero diagnostics" 0
    (List.length report.Plan_check.diags);
  Alcotest.(check int) "bound per axis" 2
    (Array.length report.Plan_check.axis_bound);
  Array.iter
    (fun b ->
      Alcotest.(check (float 1e-9)) "axis bound 1-(1-1/2)^2" 0.75 b)
    report.Plan_check.axis_bound

let test_bad_capacity () =
  let report = check [| [| 0.1 |] |] [ 1.; -1. ] in
  Alcotest.(check bool) "rejected" false (Plan_check.ok report);
  Alcotest.(check bool) "bad-capacity" true (has_code "bad-capacity" report);
  let report = check [| [| 0.1 |] |] [ Float.nan ] in
  Alcotest.(check bool) "nan capacity" true (has_code "bad-capacity" report);
  let report = check [| [| 0.1 |] |] [] in
  Alcotest.(check bool) "empty cluster" true (has_code "bad-capacity" report)

let test_dimension_mismatch () =
  let report = check ~expect_vars:3 [| [| 0.1; 0.2 |] |] [ 1. ] in
  Alcotest.(check bool) "rejected" false (Plan_check.ok report);
  Alcotest.(check bool) "dimension-mismatch" true
    (has_code "dimension-mismatch" report)

(* One operator loading every variable equally: d = max_dim passes,
   one more is refused. *)
let test_too_many_variables () =
  let wide d = check [| Array.make d 0.01 |] [ 1. ] in
  let limit = Feasible.Halton.max_dim in
  Alcotest.(check bool) "max_dim accepted" true (Plan_check.ok (wide limit));
  let report = wide (limit + 1) in
  Alcotest.(check bool) "rejected" false (Plan_check.ok report);
  Alcotest.(check bool) "too-many-variables" true
    (has_code "too-many-variables" report)

let test_empty_plan () =
  let report =
    Plan_check.check_matrix ~lo:(Mat.zeros 0 2) ~caps:(Vec.of_list [ 1. ]) ()
  in
  Alcotest.(check bool) "warning only" true (Plan_check.ok report);
  Alcotest.(check bool) "empty-plan" true (has_code "empty-plan" report)

let test_nan_coefficient () =
  let report = check [| [| Float.nan |] |] [ 1. ] in
  Alcotest.(check bool) "rejected" false (Plan_check.ok report);
  Alcotest.(check bool) "nan-coefficient" true
    (has_code "nan-coefficient" report);
  Alcotest.(check int) "no bound on dirty values" 0
    (Array.length report.Plan_check.axis_bound)

let test_negative_coefficient () =
  let report = check [| [| -0.5 |] |] [ 1. ] in
  Alcotest.(check bool) "rejected" false (Plan_check.ok report);
  Alcotest.(check bool) "negative-coefficient" true
    (has_code "negative-coefficient" report)

let test_dead_operator () =
  let report = check [| [| 0.; 0. |]; [| 0.3; 0.3 |] |] [ 1. ] in
  Alcotest.(check bool) "warning only" true (Plan_check.ok report);
  Alcotest.(check bool) "dead-operator" true (has_code "dead-operator" report)

let test_unloaded_variable () =
  let report = check [| [| 0.3; 0. |] |] [ 1. ] in
  Alcotest.(check bool) "warning only" true (Plan_check.ok report);
  Alcotest.(check bool) "unloaded-variable" true
    (has_code "unloaded-variable" report)

let test_infeasible_operator () =
  (* Coefficient 5 vs capacity 1: unit rate does not fit anywhere. *)
  let report = check [| [| 5. |] |] [ 1. ] in
  Alcotest.(check bool) "rejected" false (Plan_check.ok report);
  Alcotest.(check bool) "infeasible-operator" true
    (has_code "infeasible-operator" report);
  Alcotest.(check bool) "assert_ok raises" true
    (match Plan_check.assert_ok report with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_resiliency_capped () =
  (* One operator dominates axis 0 on an 8-node cluster: the
     truncating extent is 1/0.9 vs ideal 8/0.9, so the bound is
     1 - (1 - 1/8)^2 ~ 0.234 < 0.5. *)
  let report =
    check [| [| 0.9; 0. |]; [| 0.; 0.1 |] |] [ 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1. ]
  in
  Alcotest.(check bool) "warning only" true (Plan_check.ok report);
  Alcotest.(check bool) "resiliency-capped" true
    (has_code "resiliency-capped" report);
  Alcotest.(check (float 1e-6)) "axis-0 bound" 0.234375
    report.Plan_check.axis_bound.(0);
  (* The same plan passes with a permissive threshold. *)
  let lax =
    check ~threshold:0.1
      [| [| 0.9; 0. |]; [| 0.; 0.1 |] |]
      [ 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1. ]
  in
  Alcotest.(check int) "no warning below threshold" 0
    (List.length lax.Plan_check.diags)

let test_starved_operator () =
  (* The producer's selectivity is zero, so the consumer only sees a
     statically-dead stream. *)
  let graph =
    Query.Graph_io.of_string
      "rodgraph v1\n\
       inputs 1 xfer=0\n\
       op name=p inputs=I0 linear costs=0.1 sels=0 xfer=0\n\
       op name=c inputs=o0 linear costs=0.1 sels=1 xfer=0\n"
  in
  let report = Plan_check.check_graph graph ~caps:(Vec.of_list [ 1.; 1. ]) in
  Alcotest.(check bool) "warning only" true (Plan_check.ok report);
  Alcotest.(check bool) "starved-operator" true
    (has_code "starved-operator" report)

let test_graph_fixtures () =
  let infeasible = Query.Graph_io.load ~path:"fixtures/infeasible.rodgraph" in
  let report =
    Plan_check.check_graph infeasible ~caps:(Vec.of_list [ 1.; 1. ])
  in
  Alcotest.(check bool) "fixture rejected" false (Plan_check.ok report);
  Alcotest.(check bool) "names the operator" true
    (List.exists
       (fun d ->
         d.Plan_check.code = "infeasible-operator"
         && String.length d.Plan_check.message > 0)
       report.Plan_check.diags);
  let clean = Query.Graph_io.load ~path:"fixtures/clean.rodgraph" in
  let report = Plan_check.check_graph clean ~caps:(Vec.of_list [ 1.; 1. ]) in
  Alcotest.(check bool) "clean fixture ok" true (Plan_check.ok report);
  Alcotest.(check int) "clean fixture zero diagnostics" 0
    (List.length report.Plan_check.diags)

let test_json_rendering () =
  let report = check [| [| 5. |] |] [ 1. ] in
  let json = Plan_check.to_json report in
  let mem sub =
    let l = String.length json and sl = String.length sub in
    let rec scan i = i + sl <= l && (String.sub json i sl = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "schema tag" true (mem "rod-plan-check/1");
  Alcotest.(check bool) "not ok" true (mem "\"ok\": false");
  Alcotest.(check bool) "carries the code" true (mem "infeasible-operator")

(* --- deploy integration: the gate rejects before placing --- *)

let test_deploy_gate () =
  let graph = Query.Graph_io.load ~path:"fixtures/infeasible.rodgraph" in
  let caps = Rod.Problem.homogeneous_caps ~n:2 ~cap:1. in
  Alcotest.(check bool) "deploy rejects statically" true
    (match Deploy.of_cost_model ~graph ~caps () with
    | _ -> false
    | exception Invalid_argument message ->
      (* The message must point at static analysis, not at some later
         placement failure. *)
      String.length message > 0
      && String.sub message 0 10 = "deployment")

(* --- rodlint fixtures --- *)

let rules path = List.map (fun d -> d.Lint.rule) (Lint.lint_file path)

let test_lint_determinism () =
  Alcotest.(check (list string))
    "violating file: every determinism rule"
    [
      "determinism/self-init"; "determinism/global-random";
      "determinism/wallclock"; "determinism/wallclock";
    ]
    (rules "lint_fixtures/det_violating.ml");
  Alcotest.(check (list string))
    "conforming file: clean" []
    (rules "lint_fixtures/det_conforming.ml")

let test_lint_hot () =
  Alcotest.(check (list string))
    "violating file: every hot rule"
    [ "hot/poly-compare"; "hot/float-eq" ]
    (rules "lint_fixtures/hot_violating.ml");
  Alcotest.(check (list string))
    "conforming file: clean" []
    (rules "lint_fixtures/hot_conforming.ml")

let test_lint_obs () =
  Alcotest.(check (list string))
    "violating file: every console side-channel shape"
    [
      "obs/print-telemetry"; "obs/print-telemetry"; "obs/print-telemetry";
      "obs/print-telemetry"; "obs/print-telemetry";
    ]
    (rules "lint_fixtures/obs_violating.ml");
  Alcotest.(check (list string))
    "conforming file: string rendering stays legal" []
    (rules "lint_fixtures/obs_conforming.ml")

let test_lint_obs_marker_detection () =
  (* Without the marker, console printing is not a telemetry concern... *)
  Alcotest.(check (list string))
    "no marker, no obs rules" []
    (List.map
       (fun d -> d.Lint.rule)
       (Lint.lint_string ~filename:"m.ml" "let f x = Printf.printf \"%d\" x"));
  (* ...the marker comment switches the rule on, and ?obs overrides. *)
  Alcotest.(check (list string))
    "marker enables" [ "obs/print-telemetry" ]
    (List.map
       (fun d -> d.Lint.rule)
       (Lint.lint_string ~filename:"m.ml"
          "(* rodlint: obs *)\nlet f x = Printf.printf \"%d\" x"));
  Alcotest.(check (list string))
    "explicit override" [ "obs/print-telemetry" ]
    (List.map
       (fun d -> d.Lint.rule)
       (Lint.lint_string ~obs:true ~filename:"m.ml"
          "let f () = print_endline \"done\""))

let test_lint_positions () =
  match Lint.lint_file "lint_fixtures/det_violating.ml" with
  | first :: _ ->
    Alcotest.(check string) "file" "lint_fixtures/det_violating.ml" first.Lint.file;
    Alcotest.(check int) "line of Random.self_init" 3 first.Lint.line;
    Alcotest.(check bool) "rendered as file:line:col" true
      (String.length (Lint.render first) > 0
      && Lint.render first
         <> Printf.sprintf "%s:0:0" first.Lint.file)
  | [] -> Alcotest.fail "expected findings"

let test_lint_hot_marker_detection () =
  (* Without the marker the hot rules stay silent... *)
  Alcotest.(check (list string))
    "no marker, no hot rules" []
    (List.map
       (fun d -> d.Lint.rule)
       (Lint.lint_string ~filename:"m.ml" "let f k = Array.sort compare k"));
  (* ...the marker comment switches them on, and ?hot overrides. *)
  Alcotest.(check (list string))
    "marker enables" [ "hot/poly-compare" ]
    (List.map
       (fun d -> d.Lint.rule)
       (Lint.lint_string ~filename:"m.ml"
          "(* rodlint: hot *)\nlet f k = Array.sort compare k"));
  (* ...but only inside a comment: a string literal is data. *)
  Alcotest.(check (list string))
    "marker in a string literal" []
    (List.map
       (fun d -> d.Lint.rule)
       (Lint.lint_string ~filename:"m.ml"
          "let m = \"rodlint: hot\"\nlet f k = Array.sort compare k"));
  Alcotest.(check (list string))
    "explicit override" [ "hot/poly-compare" ]
    (List.map
       (fun d -> d.Lint.rule)
       (Lint.lint_string ~hot:true ~filename:"m.ml"
          "let f k = Array.sort compare k"))

let test_lint_parse_error () =
  match Lint.lint_string ~filename:"broken.ml" "let = in =" with
  | [ d ] -> Alcotest.(check string) "parse/error" "parse/error" d.Lint.rule
  | other ->
    Alcotest.failf "expected exactly one parse/error, got %d" (List.length other)

let test_allowlist () =
  let diags = Lint.lint_file "lint_fixtures/det_violating.ml" in
  let allow =
    Allowlist.of_string ~source:"test.allow"
      "# comment line\n\
       det_violating.ml determinism/ # fixtures are allowed to violate\n\
       nowhere.ml hot/ # never matches\n"
  in
  let kept, suppressed =
    Allowlist.split
      ~file:(fun (d : Lint.diag) -> d.file)
      ~rule:(fun (d : Lint.diag) -> d.rule)
      allow diags
  in
  Alcotest.(check int) "all suppressed" 0 (List.length kept);
  Alcotest.(check int) "four suppressed" 4 (List.length suppressed);
  Alcotest.(check (list (pair string string)))
    "stale entry reported"
    [ ("nowhere.ml", "hot/") ]
    (Allowlist.unused allow);
  Alcotest.(check bool) "malformed entry rejected" true
    (match Allowlist.of_string ~source:"bad.allow" "just-one-token\n" with
    | _ -> false
    | exception Failure message ->
      String.length message > 0 && String.sub message 0 9 = "bad.allow")

(* --- the rodcheck driver: fixture comparison and merged allowlist --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tree_of ~path text =
  {
    Check.sources = [ Check.source_of_string ~path text ];
    units = [ Scan.unit_of_source ~filename:path text ];
  }

let fixture_of ~path text =
  match Check.fixtures (tree_of ~path text) with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected one fixture, got %d" (List.length fs)

let test_check_fixtures () =
  let conforming = "lint_fixtures/units/units_conforming.ml" in
  let text = read_file conforming in
  Alcotest.(check bool) "conforming fixture passes" true
    (Check.fixture_ok (fixture_of ~path:conforming text));
  let tampered =
    fixture_of ~path:conforming
      (text ^ "(* rodunits-expect: units/mixed-add *)\n")
  in
  Alcotest.(check bool) "a declared rule nobody reports fails" false
    (Check.fixture_ok tampered);
  Alcotest.(check (list string)) "expected" [ "units/mixed-add" ]
    tampered.Check.expected;
  Alcotest.(check (list string)) "got" [] tampered.Check.got;
  let violating = "lint_fixtures/units/units_mixed_add.ml" in
  let undeclared =
    String.split_on_char '\n' (read_file violating)
    |> List.filter (fun line ->
           not (List.mem "rodunits-expect:" (String.split_on_char ' ' line)))
    |> String.concat "\n"
  in
  let f = fixture_of ~path:violating undeclared in
  Alcotest.(check bool) "a reported rule nobody declares fails" false
    (Check.fixture_ok f);
  Alcotest.(check (list string)) "got" [ "units/mixed-add" ] f.Check.got;
  Alcotest.(check int) "a unit whose source was not loaded is skipped" 0
    (List.length
       (Check.fixtures
          { (tree_of ~path:conforming text) with Check.sources = [] }))

let test_check_merged_allowlist () =
  let tree = tree_of ~path:"m.ml" "let draw () = Random.int 3\n" in
  let text =
    "# merged\n\
     m.ml determinism/ # live: the lint finding\n\
     m.ml hot/ # stale lint entry\n\
     m.ml race/ # stale scan entry\n\
     m.ml proto/ # stale proto entry\n\
     m.ml units/ # stale units entry\n"
  in
  let allow = Allowlist.of_string ~source:"rodcheck.allow" text in
  let report = Check.run ~clock:(fun () -> 0.) allow tree in
  Alcotest.(check bool) "stale entries fail the run" true (Check.failed report);
  Alcotest.(check (list (pair string string)))
    "one stale entry per pass"
    [ ("m.ml", "hot/"); ("m.ml", "race/"); ("m.ml", "proto/"); ("m.ml", "units/") ]
    report.Check.stale;
  Alcotest.(check (list (pair string int)))
    "per-pass suppressed counts"
    [ ("lint", 1); ("scan", 0); ("proto", 0); ("units", 0) ]
    (List.map
       (fun (o : Check.outcome) -> (o.pass, o.suppressed))
       report.Check.outcomes);
  let pruned = Allowlist.prune allow text in
  Alcotest.(check string) "--fix drops exactly the stale entries"
    "# merged\nm.ml determinism/ # live: the lint finding\n" pruned;
  let again =
    Check.run ~clock:(fun () -> 0.)
      (Allowlist.of_string ~source:"rodcheck.allow" pruned)
      tree
  in
  Alcotest.(check bool) "the pruned allowlist passes" false (Check.failed again);
  Alcotest.(check (list string)) "one SARIF run per pass"
    [ "rodlint"; "rodscan"; "rodproto"; "rodunits" ]
    (List.map (fun (r : Sarif.run) -> r.tool) (Check.sarif again))

let suite =
  [
    Alcotest.test_case "clean plan: zero diagnostics" `Quick test_clean_plan;
    Alcotest.test_case "bad capacity" `Quick test_bad_capacity;
    Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
    Alcotest.test_case "too many variables" `Quick test_too_many_variables;
    Alcotest.test_case "empty plan" `Quick test_empty_plan;
    Alcotest.test_case "nan coefficient" `Quick test_nan_coefficient;
    Alcotest.test_case "negative coefficient" `Quick test_negative_coefficient;
    Alcotest.test_case "dead operator" `Quick test_dead_operator;
    Alcotest.test_case "unloaded variable" `Quick test_unloaded_variable;
    Alcotest.test_case "infeasible operator" `Quick test_infeasible_operator;
    Alcotest.test_case "resiliency capped" `Quick test_resiliency_capped;
    Alcotest.test_case "starved operator" `Quick test_starved_operator;
    Alcotest.test_case "graph fixtures" `Quick test_graph_fixtures;
    Alcotest.test_case "json rendering" `Quick test_json_rendering;
    Alcotest.test_case "deploy gate" `Quick test_deploy_gate;
    Alcotest.test_case "lint: determinism rules" `Quick test_lint_determinism;
    Alcotest.test_case "lint: hot-path rules" `Quick test_lint_hot;
    Alcotest.test_case "lint: obs telemetry rule" `Quick test_lint_obs;
    Alcotest.test_case "lint: obs marker detection" `Quick
      test_lint_obs_marker_detection;
    Alcotest.test_case "lint: positions" `Quick test_lint_positions;
    Alcotest.test_case "lint: hot marker detection" `Quick
      test_lint_hot_marker_detection;
    Alcotest.test_case "lint: parse error" `Quick test_lint_parse_error;
    Alcotest.test_case "lint: allowlist" `Quick test_allowlist;
    Alcotest.test_case "check: fixture comparison" `Quick test_check_fixtures;
    Alcotest.test_case "check: merged allowlist" `Quick
      test_check_merged_allowlist;
  ]
