(* Tests of the typedtree analyzer (Analysis.Scan): QCheck laws for the
   taint lattice and the summary solver, the allowlist path
   normalization it shares with rodlint, each pass exercised through
   in-memory typechecked sources, and the SARIF emitter. *)

module Scan = Analysis.Scan
module Lint = Analysis.Lint
module Sarif = Analysis.Sarif
module Allowlist = Analysis.Allowlist
module Check = Analysis.Check

(* --- taint lattice laws ------------------------------------------- *)

let taint_gen =
  QCheck.Gen.(
    map Scan.Taint.of_list
      (list_size (int_bound 6)
         (oneofl [ "Random.float"; "Sys.time"; "Unix.gettimeofday"; "Hashtbl.fold" ])))

let arb_taint =
  QCheck.make taint_gen ~print:(fun t ->
      String.concat "," (Scan.Taint.to_list t))

let prop_join_commutative =
  QCheck.Test.make ~name:"taint join commutative" ~count:200
    (QCheck.pair arb_taint arb_taint)
    (fun (a, b) -> Scan.Taint.equal (Scan.Taint.join a b) (Scan.Taint.join b a))

let prop_join_idempotent =
  QCheck.Test.make ~name:"taint join idempotent" ~count:200 arb_taint (fun a ->
      Scan.Taint.equal (Scan.Taint.join a a) a)

let prop_join_associative =
  QCheck.Test.make ~name:"taint join associative" ~count:200
    (QCheck.triple arb_taint arb_taint arb_taint)
    (fun (a, b, c) ->
      Scan.Taint.equal
        (Scan.Taint.join a (Scan.Taint.join b c))
        (Scan.Taint.join (Scan.Taint.join a b) c))

let prop_bottom_unit =
  QCheck.Test.make ~name:"taint bottom is unit" ~count:200 arb_taint (fun a ->
      Scan.Taint.equal (Scan.Taint.join a Scan.Taint.bottom) a
      && Scan.Taint.equal (Scan.Taint.join Scan.Taint.bottom a) a)

(* --- solver: order independence and a reachability model ----------- *)

(* Small random call graphs over a closed node universe. *)
let graph_gen =
  QCheck.Gen.(
    let node = map (Printf.sprintf "f%d") (int_bound 5) in
    let src = oneofl [ "Random.float"; "Sys.time" ] in
    list_size (int_range 1 10)
      (triple node (list_size (int_bound 2) src) (list_size (int_bound 3) node)))

let print_graph g =
  String.concat "; "
    (List.map
       (fun (n, srcs, callees) ->
         Printf.sprintf "%s <- [%s] calls [%s]" n (String.concat "," srcs)
           (String.concat "," callees))
       g)

let arb_graph = QCheck.make graph_gen ~print:print_graph

(* Shuffle deterministically from a seed list so the property needs no
   global Random state. *)
let permute keys g =
  let tagged = List.mapi (fun i x -> (List.nth keys (i mod List.length keys), i, x)) g in
  List.map (fun (_, _, x) -> x)
    (List.sort (fun (a, i, _) (b, j, _) -> if a <> b then compare a b else compare i j) tagged)

let prop_solve_order_independent =
  QCheck.Test.make ~name:"solve is order-independent" ~count:200
    (QCheck.pair arb_graph (QCheck.list_of_size (QCheck.Gen.return 7) QCheck.small_nat))
    (fun (g, keys) ->
      QCheck.assume (keys <> []);
      Scan.solve g = Scan.solve (permute keys g))

(* Reference model: a node's taint is the union of direct sources over
   every node reachable through the (merged) call graph. *)
let model_solve g =
  let module SMap = Map.Make (String) in
  let module SSet = Set.Make (String) in
  let merged =
    List.fold_left
      (fun acc (n, srcs, callees) ->
        let s0, c0 =
          match SMap.find_opt n acc with Some v -> v | None -> ([], [])
        in
        SMap.add n (s0 @ srcs, c0 @ callees) acc)
      SMap.empty g
  in
  let rec reach seen n =
    if SSet.mem n seen then seen
    else
      match SMap.find_opt n merged with
      | None -> seen
      | Some (_, callees) -> List.fold_left reach (SSet.add n seen) callees
  in
  SMap.bindings merged
  |> List.map (fun (n, _) ->
         let sources =
           SSet.fold
             (fun m acc ->
               match SMap.find_opt m merged with
               | Some (srcs, _) -> List.fold_left (fun a s -> SSet.add s a) acc srcs
               | None -> acc)
             (reach SSet.empty n) SSet.empty
         in
         (n, SSet.elements sources))

let prop_solve_matches_model =
  QCheck.Test.make ~name:"solve matches reachability model" ~count:200 arb_graph
    (fun g -> Scan.solve g = model_solve g)

(* --- allowlist path normalization ----------------------------------- *)

let test_normalize_path () =
  Alcotest.(check string) "plain" "lib/a.ml" (Allowlist.normalize_path "lib/a.ml");
  Alcotest.(check string) "dot-slash" "lib/a.ml" (Allowlist.normalize_path "./lib/a.ml");
  Alcotest.(check string) "build-relative" "lib/a.ml"
    (Allowlist.normalize_path "_build/default/lib/a.ml");
  Alcotest.(check string) "stacked prefixes" "lib/a.ml"
    (Allowlist.normalize_path "./_build/default/./lib/a.ml");
  Alcotest.(check string) "infix untouched" "x/_build/default/lib/a.ml"
    (Allowlist.normalize_path "x/_build/default/lib/a.ml")

let test_allowlist_normalized_match () =
  let diag file = { Lint.file; line = 1; col = 0; rule = "det/taint"; message = "m" } in
  let allow = Filename.temp_file "rodscan" ".allow" in
  let oc = open_out allow in
  output_string oc "./lib/chaos/oracle.ml det # justified\n";
  close_out oc;
  let allowlist = Allowlist.load allow in
  let kept, suppressed =
    Allowlist.split
      ~file:(fun (d : Lint.diag) -> d.file)
      ~rule:(fun (d : Lint.diag) -> d.rule)
      allowlist
      [ diag "_build/default/lib/chaos/oracle.ml"; diag "lib/other.ml" ]
  in
  Sys.remove allow;
  Alcotest.(check int) "suppressed across spellings" 1 (List.length suppressed);
  Alcotest.(check int) "kept" 1 (List.length kept);
  Alcotest.(check int) "no stale entries" 0
    (List.length (Allowlist.unused allowlist))

(* --- the passes, via in-memory typechecked sources ----------------- *)

let rules_of diags = List.sort_uniq compare (List.map (fun d -> d.Lint.rule) diags)

let scan_source ?(filename = "fixture.ml") text =
  Scan.scan_units [ Scan.unit_of_source ~filename text ]

let det_marker = "(* " ^ Scan.deterministic_marker ^ " *)"
let hot_marker = "(* " ^ Lint.hot_marker ^ " *)"
let hatch why = "(* " ^ Scan.alloc_ok_marker ^ " " ^ why ^ " *)"

let test_det_direct () =
  let diags, _ =
    scan_source (det_marker ^ "\nlet draw () = Random.float 1.0\n")
  in
  Alcotest.(check (list string)) "direct Random flagged" [ "det/taint" ]
    (rules_of diags)

let test_det_chain () =
  (* The source is two hops from the marked function and never named
     there: only summary propagation can see it. *)
  let diags, _ =
    scan_source
      (det_marker
     ^ "\nlet noisy () = Sys.time ()\nlet mid () = noisy () +. 1.\nlet top () = mid () *. 2.\n")
  in
  Alcotest.(check (list string)) "chain flagged" [ "det/taint" ] (rules_of diags);
  Alcotest.(check bool) "top of chain reported" true
    (List.exists (fun d -> d.Lint.line = 4) diags)

let test_det_conforming () =
  let diags, _ =
    scan_source
      (det_marker
     ^ "\nlet draw st = Random.State.float st 1.0\nlet run ~seed = draw (Random.State.make [| seed |])\n")
  in
  Alcotest.(check (list string)) "seeded state is deterministic" []
    (rules_of diags)

let test_det_unmarked () =
  let diags, _ = scan_source "let draw () = Random.float 1.0\n" in
  Alcotest.(check (list string)) "unmarked module not flagged" []
    (rules_of diags)

(* A structurally Pool-shaped local module lets the race pass run
   against plain stdlib sources: matching is on the canonical
   [Pool.<fn>] suffix, exactly as with Parallel.Pool. *)
let fake_pool =
  "module Pool = struct\n\
  \  let parallel_for pool ~n f = ignore pool; f 0 n\n\
   end\n"

let test_race_captured_ref () =
  let diags, _ =
    scan_source
      (fake_pool
     ^ "let sum pool n =\n\
       \  let total = ref 0 in\n\
       \  Pool.parallel_for pool ~n (fun lo hi ->\n\
       \      for i = lo to hi - 1 do total := !total + i done);\n\
       \  !total\n")
  in
  Alcotest.(check (list string)) "captured ref flagged" [ "race/captured-ref" ]
    (rules_of diags)

let test_race_conforming () =
  let diags, _ =
    scan_source
      (fake_pool
     ^ "let squares pool n =\n\
       \  let out = Array.make n 0 in\n\
       \  let hits = Atomic.make 0 in\n\
       \  Pool.parallel_for pool ~n (fun lo hi ->\n\
       \      for i = lo to hi - 1 do out.(i) <- i * i; Atomic.incr hits done);\n\
       \  (out, Atomic.get hits)\n")
  in
  Alcotest.(check (list string)) "indexed writes and Atomic allowed" []
    (rules_of diags)

let test_alloc_literal () =
  let diags, _ =
    scan_source
      (hot_marker
     ^ "\nlet best xs =\n\
       \  let b = ref (-1, 0.) in\n\
       \  for i = 0 to Array.length xs - 1 do\n\
       \    if xs.(i) > snd !b then b := (i, xs.(i))\n\
       \  done;\n\
       \  !b\n")
  in
  Alcotest.(check (list string)) "tuple in hot loop flagged" [ "alloc/literal" ]
    (rules_of diags)

let test_alloc_hatch () =
  let diags, stats =
    scan_source
      (hot_marker
     ^ "\nlet trail xs =\n\
       \  let acc = ref [] in\n\
       \  for i = 0 to Array.length xs - 1 do\n\
       \    " ^ hatch "bounded diagnostic trail" ^ "\n\
       \    if xs.(i) > 0. then acc := i :: !acc\n\
       \  done;\n\
       \  !acc\n")
  in
  Alcotest.(check (list string)) "hatch suppresses the cons" [] (rules_of diags);
  Alcotest.(check int) "hatch counted as used" 1 stats.Scan.hatches_used

let test_alloc_unused_hatch () =
  let diags, _ =
    scan_source
      (hot_marker ^ "\n" ^ hatch "nothing here allocates" ^ "\nlet id x = x\n")
  in
  Alcotest.(check (list string)) "stale hatch is itself a finding"
    [ "alloc/unused-hatch" ] (rules_of diags)

let test_alloc_cold_module () =
  let diags, _ =
    scan_source
      "let best xs =\n\
      \  let b = ref (-1, 0.) in\n\
      \  for i = 0 to Array.length xs - 1 do\n\
      \    if xs.(i) > snd !b then b := (i, xs.(i))\n\
      \  done;\n\
      \  !b\n"
  in
  Alcotest.(check (list string)) "unmarked module may allocate" []
    (rules_of diags)

(* --- the shapes of the deleted parse-tree rules ---------------------

   The captured-mutation shapes and the per-iteration closure that the
   linter's parallel/captured-mutation and hot/closure-in-loop rules
   used to catch are scan fixtures now; re-check them here, against a
   stand-in for Parallel.Pool, so dune runtest pins them too. *)

let fake_parallel =
  "module Parallel = struct\n\
  \  module Pool = struct\n\
  \    let parallel_for _pool ~n f = f 0 n\n\
  \    let map_reduce _pool ~n ~map ~combine ~init = combine init (map 0 n)\n\
  \  end\n\
   end\n"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_subsumed_shapes () =
  List.iter
    (fun (file, rules) ->
      let path = Filename.concat "lint_fixtures/scan" file in
      let text = fake_parallel ^ read_file path in
      let tree =
        {
          Check.sources = [ Check.source_of_string ~path text ];
          units = [ Scan.unit_of_source ~filename:path text ];
        }
      in
      match Check.fixtures tree with
      | [ f ] ->
        Alcotest.(check (list string)) (file ^ " declares") rules f.expected;
        Alcotest.(check (list string)) (file ^ " reports") rules f.got
      | _ -> Alcotest.failf "%s: expected one fixture" file)
    [
      ( "race_pool_shapes_violating.ml",
        [ "race/captured-array"; "race/captured-field"; "race/captured-ref" ] );
      ("race_pool_shapes_conforming.ml", []);
      ("alloc_loop_closure_violating.ml", [ "alloc/closure" ]);
    ]

(* --- SARIF emitter ------------------------------------------------- *)

let count_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let finding ?(file = Some "lib/a.ml") rule_id message =
  { Sarif.rule_id; level = "error"; message; file; line = Some 3; col = Some 7 }

let test_sarif () =
  let out =
    Sarif.to_string
      [
        {
          Sarif.tool = "rodscan";
          rules =
            [ Sarif.rule ~help_uri:"DESIGN.md#10" "det/taint" "taint description" ];
          results = [ finding "det/taint" "a \"quoted\" message" ];
        };
      ]
  in
  List.iter
    (fun needle ->
      Alcotest.(check int) (Printf.sprintf "contains %s" needle) 1
        (count_sub needle out))
    [
      "\"version\": \"2.1.0\"";
      "\"ruleId\": \"det/taint\"";
      "\"helpUri\": \"DESIGN.md#10\"";
      "\"uri\": \"lib/a.ml\"";
      "\"startLine\": 3";
      "\"startColumn\": 8";
      "a \\\"quoted\\\" message";
    ]

(* One document, one run per pass, in order; every message escaped and
   every result present exactly once. *)
let test_sarif_runs () =
  let run tool results = { Sarif.tool; rules = []; results } in
  let out =
    Sarif.to_string
      [
        run "rodlint" [ finding "determinism/wallclock" "tab\there" ];
        run "rodscan" [];
        run "rodproto"
          [
            finding "proto/missed-resume" "back\\slash";
            finding ~file:None "proto/missing-role" "line\nbreak";
          ];
        run "rodunits" [ finding "units/mixed-add" "ctrl\001char" ];
      ]
  in
  let position needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length out then max_int
      else if String.sub out i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check int) "one document" 1 (count_sub "\"runs\": [" out);
  Alcotest.(check int) "four runs" 4 (count_sub "\"driver\"" out);
  Alcotest.(check int) "results" 4 (count_sub "\"ruleId\"" out);
  let starts =
    List.map
      (fun tool -> position (Printf.sprintf "\"name\": \"%s\"" tool))
      [ "rodlint"; "rodscan"; "rodproto"; "rodunits" ]
  in
  Alcotest.(check bool) "every run named" false (List.mem max_int starts);
  Alcotest.(check (list int)) "runs in order" (List.sort compare starts) starts;
  List.iter
    (fun needle ->
      Alcotest.(check int) (Printf.sprintf "escaped %s" needle) 1
        (count_sub needle out))
    [ "tab\\there"; "back\\\\slash"; "line\\nbreak"; "ctrl\\u0001char" ];
  Alcotest.(check int) "a location-less result has no locations" 3
    (count_sub "\"locations\"" out)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_join_commutative;
      prop_join_idempotent;
      prop_join_associative;
      prop_bottom_unit;
      prop_solve_order_independent;
      prop_solve_matches_model;
    ]
  @ [
      Alcotest.test_case "normalize_path" `Quick test_normalize_path;
      Alcotest.test_case "allowlist matches across path spellings" `Quick
        test_allowlist_normalized_match;
      Alcotest.test_case "det: direct source" `Quick test_det_direct;
      Alcotest.test_case "det: two-call chain" `Quick test_det_chain;
      Alcotest.test_case "det: seeded state conforms" `Quick test_det_conforming;
      Alcotest.test_case "det: unmarked module ignored" `Quick test_det_unmarked;
      Alcotest.test_case "race: captured ref" `Quick test_race_captured_ref;
      Alcotest.test_case "race: chunk-local conforms" `Quick test_race_conforming;
      Alcotest.test_case "alloc: literal in hot loop" `Quick test_alloc_literal;
      Alcotest.test_case "alloc: hatch suppresses and is counted" `Quick
        test_alloc_hatch;
      Alcotest.test_case "alloc: unused hatch reported" `Quick
        test_alloc_unused_hatch;
      Alcotest.test_case "alloc: cold module ignored" `Quick
        test_alloc_cold_module;
      Alcotest.test_case "subsumed lint shapes" `Quick test_subsumed_shapes;
      Alcotest.test_case "sarif shape" `Quick test_sarif;
      Alcotest.test_case "sarif: one run per pass" `Quick test_sarif_runs;
    ]
