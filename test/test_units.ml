(* Tests of the dimensional analyzer (Analysis.Units): QCheck laws for
   the dimension group and the abstract-value lattice, parse/render
   round trips, every fixture under lint_fixtures/units re-checked
   through in-memory typechecking (the same sources the rodcheck
   --fixtures self-test compiles), in-memory interface seeding through
   an injected read_mli closure, and the Allowlist machinery rodcheck
   sits on. *)

module Units = Analysis.Units
module Dim = Analysis.Units.Dim
module Abs = Analysis.Units.Abs
module Scan = Analysis.Scan
module Lint = Analysis.Lint
module Allowlist = Analysis.Allowlist
module Comments = Analysis.Comments

(* --- the dimension group ------------------------------------------- *)

(* Dim.t is abstract; build arbitrary elements from the published
   constructors so the generator cannot bypass the representation. *)
let dim_of exps =
  List.fold_left2
    (fun acc name e -> Dim.mul acc (Dim.pow (Option.get (Dim.base name)) e))
    Dim.one Dim.base_names exps

let arb_dim =
  let gen =
    QCheck.Gen.(
      map dim_of (list_repeat (List.length Dim.base_names) (int_range (-3) 3)))
  in
  QCheck.make gen ~print:Dim.to_string

let prop_dim_mul_commutative =
  QCheck.Test.make ~name:"dim mul commutative" ~count:200
    (QCheck.pair arb_dim arb_dim)
    (fun (a, b) -> Dim.equal (Dim.mul a b) (Dim.mul b a))

let prop_dim_mul_associative =
  QCheck.Test.make ~name:"dim mul associative" ~count:200
    (QCheck.triple arb_dim arb_dim arb_dim)
    (fun (a, b, c) ->
      Dim.equal (Dim.mul a (Dim.mul b c)) (Dim.mul (Dim.mul a b) c))

let prop_dim_one_identity =
  QCheck.Test.make ~name:"dim one is the identity" ~count:100 arb_dim
    (fun a -> Dim.equal (Dim.mul a Dim.one) a && Dim.equal (Dim.mul Dim.one a) a)

let prop_dim_inv_inverse =
  QCheck.Test.make ~name:"dim inv is the group inverse" ~count:100 arb_dim
    (fun a -> Dim.equal (Dim.mul a (Dim.inv a)) Dim.one)

let prop_dim_div_mul_inv =
  QCheck.Test.make ~name:"dim div = mul inv" ~count:200
    (QCheck.pair arb_dim arb_dim)
    (fun (a, b) -> Dim.equal (Dim.div a b) (Dim.mul a (Dim.inv b)))

let prop_dim_pow_repeats_mul =
  QCheck.Test.make ~name:"dim pow is repeated mul" ~count:100
    (QCheck.pair arb_dim (QCheck.int_range 0 4))
    (fun (a, k) ->
      let rec repeat acc i = if i = 0 then acc else repeat (Dim.mul acc a) (i - 1) in
      Dim.equal (Dim.pow a k) (repeat Dim.one k)
      && Dim.equal (Dim.pow a (-k)) (Dim.inv (Dim.pow a k)))

let prop_dim_roundtrip =
  QCheck.Test.make ~name:"dim to_string/parse round trip" ~count:200 arb_dim
    (fun a ->
      match Dim.parse (Dim.to_string a) with
      | Ok b -> Dim.equal a b
      | Error _ -> false)

let base name = Option.get (Dim.base name)

let dim_testable =
  Alcotest.testable (fun fmt d -> Format.pp_print_string fmt (Dim.to_string d))
    Dim.equal

let parse_ok s =
  match Dim.parse s with
  | Ok d -> d
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_parse_aliases () =
  Alcotest.check dim_testable "rate" (Dim.div (base "tuple") (base "sim-sec"))
    (parse_ok "rate");
  Alcotest.check dim_testable "load-coeff"
    (Dim.div (base "cpu-sec") (base "tuple"))
    (parse_ok "load-coeff");
  Alcotest.check dim_testable "ratio" Dim.one (parse_ok "ratio");
  Alcotest.check dim_testable "1" Dim.one (parse_ok "1");
  (* rate * load-coeff = cpu-sec/sim-sec: the modeled node load. *)
  Alcotest.check dim_testable "rate*load-coeff"
    (Dim.div (base "cpu-sec") (base "sim-sec"))
    (parse_ok "rate*load-coeff")

let test_parse_signed_factors () =
  (* a/b*c means a . b^-1 . c — each factor's sign comes from its own
     separator, not from a precedence grouping. *)
  Alcotest.check dim_testable "a/b*c"
    (Dim.mul (Dim.div (base "tuple") (base "sim-sec")) (base "cpu-sec"))
    (parse_ok "tuple/sim-sec*cpu-sec");
  Alcotest.check dim_testable "a/b/c"
    (Dim.div (Dim.div (base "tuple") (base "sim-sec")) (base "cpu-sec"))
    (parse_ok "tuple/sim-sec/cpu-sec");
  Alcotest.check dim_testable "exponent"
    (Dim.div (base "cpu-sec") (Dim.pow (base "tuple") 2))
    (parse_ok "cpu-sec/tuple^2")

let test_parse_errors () =
  let is_error s =
    match Dim.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown unit" true (is_error "furlong");
  Alcotest.(check bool) "empty" true (is_error "");
  Alcotest.(check bool) "bad exponent" true (is_error "tuple^x");
  Alcotest.(check bool) "empty factor" true (is_error "tuple//sim-sec")

(* --- the abstract-value lattice ------------------------------------ *)

let arb_abs =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (1, return Abs.Poly);
          (1, return Abs.Unknown);
          (1, return Abs.Conflict);
          (3, map (fun d -> Abs.Dim d) arb_dim.QCheck.gen);
        ])
  in
  QCheck.make gen ~print:Abs.to_string

let prop_abs_join_commutative =
  QCheck.Test.make ~name:"abs join commutative" ~count:300
    (QCheck.pair arb_abs arb_abs)
    (fun (a, b) -> Abs.equal (Abs.join a b) (Abs.join b a))

let prop_abs_join_associative =
  QCheck.Test.make ~name:"abs join associative" ~count:300
    (QCheck.triple arb_abs arb_abs arb_abs)
    (fun (a, b, c) ->
      Abs.equal (Abs.join a (Abs.join b c)) (Abs.join (Abs.join a b) c))

let prop_abs_join_idempotent =
  QCheck.Test.make ~name:"abs join idempotent" ~count:100 arb_abs (fun a ->
      Abs.equal (Abs.join a a) a)

let prop_abs_poly_bottom =
  QCheck.Test.make ~name:"Poly is the join unit" ~count:100 arb_abs (fun a ->
      Abs.equal (Abs.join a Abs.Poly) a && Abs.equal (Abs.join Abs.Poly a) a)

let prop_abs_conflict_top =
  QCheck.Test.make ~name:"Conflict absorbs under join" ~count:100 arb_abs
    (fun a ->
      Abs.equal (Abs.join a Abs.Conflict) Abs.Conflict
      && Abs.equal (Abs.join Abs.Conflict a) Abs.Conflict)

let prop_abs_leq_order =
  QCheck.Test.make ~name:"abs leq is a partial order" ~count:300
    (QCheck.triple arb_abs arb_abs arb_abs)
    (fun (a, b, c) ->
      Abs.leq a a
      && ((not (Abs.leq a b && Abs.leq b a)) || Abs.equal a b)
      && ((not (Abs.leq a b && Abs.leq b c)) || Abs.leq a c))

let prop_abs_mul_commutative =
  QCheck.Test.make ~name:"abs mul commutative" ~count:300
    (QCheck.pair arb_abs arb_abs)
    (fun (a, b) -> Abs.equal (Abs.mul a b) (Abs.mul b a))

let prop_abs_mul_associative =
  QCheck.Test.make ~name:"abs mul associative" ~count:300
    (QCheck.triple arb_abs arb_abs arb_abs)
    (fun (a, b, c) ->
      Abs.equal (Abs.mul a (Abs.mul b c)) (Abs.mul (Abs.mul a b) c))

let prop_abs_poly_mul_identity =
  QCheck.Test.make ~name:"Poly is the mul identity" ~count:100 arb_abs
    (fun a ->
      Abs.equal (Abs.mul a Abs.Poly) a && Abs.equal (Abs.mul Abs.Poly a) a)

let prop_abs_unknown_absorbs_mul =
  QCheck.Test.make ~name:"Unknown absorbs concrete products" ~count:100
    arb_dim (fun d ->
      Abs.equal (Abs.mul Abs.Unknown (Abs.Dim d)) Abs.Unknown
      && Abs.equal (Abs.mul (Abs.Dim d) Abs.Unknown) Abs.Unknown
      && Abs.equal (Abs.mul Abs.Unknown Abs.Conflict) Abs.Conflict)

let prop_abs_div_mul_inv =
  QCheck.Test.make ~name:"abs div = mul inv; inv involutive" ~count:200
    (QCheck.pair arb_abs arb_abs)
    (fun (a, b) ->
      Abs.equal (Abs.div a b) (Abs.mul a (Abs.inv b))
      && Abs.equal (Abs.inv (Abs.inv a)) a)

let test_join_mixed_dims_conflict () =
  (* The exact condition the mixed-add/mixed-compare checks fire on:
     two distinct concrete dimensions merge to Conflict. *)
  let rate = Abs.Dim (parse_ok "rate") in
  let lat = Abs.Dim (parse_ok "sim-sec") in
  Alcotest.(check bool) "distinct dims conflict" true
    (Abs.equal (Abs.join rate lat) Abs.Conflict);
  Alcotest.(check bool) "equal dims stay" true
    (Abs.equal (Abs.join rate (Abs.Dim (parse_ok "tuple/sim-sec"))) rate)

(* --- the fixtures, via in-memory typechecking ---------------------- *)

(* Every fixture pair the `rodcheck --fixtures` self-test compiles is
   re-checked here from Scan.unit_of_source, so a fixture regression
   fails dune runtest even when the @lint alias is not built.
   Interface-side findings carry the .mli path; fold them onto the .ml
   exactly as the driver does when matching expectations. *)

let fixture_dir = "lint_fixtures/units"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_units () =
  Sys.readdir fixture_dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map (fun f ->
         let path = Filename.concat fixture_dir f in
         Scan.unit_of_source ~filename:path (read_file path))

let ml_of_file file =
  if Filename.check_suffix file ".mli" then
    String.sub file 0 (String.length file - 1)
  else file

let rules_of file diags =
  List.filter_map
    (fun (d : Lint.diag) ->
      if ml_of_file d.file = file then Some d.rule else None)
    diags
  |> List.sort_uniq compare

let test_fixtures () =
  let units = fixture_units () in
  Alcotest.(check bool) "fixtures present" true (List.length units >= 8);
  let diags, _stats = Units.check_units units in
  List.iter
    (fun (u : Scan.unit_info) ->
      let expected =
        List.concat_map
          (fun (h : Comments.hit) -> Comments.words h.rest)
          (Comments.find u.Scan.comments Units.expect_marker)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string))
        (Printf.sprintf "fixture %s" u.Scan.source)
        expected
        (rules_of u.Scan.source diags))
    units

(* --- in-memory seeding through an injected read_mli ---------------- *)

let mk = Printf.sprintf "(* %s %s *)" Units.units_marker

let check_mem sources =
  (* sources: (name, ml text, mli text option); the mli is served from
     memory, never the filesystem. *)
  let mlis = Hashtbl.create 4 in
  let units =
    List.map
      (fun (name, ml, mli) ->
        let file = name ^ ".ml" in
        Option.iter (fun text -> Hashtbl.replace mlis (file ^ "i") text) mli;
        Scan.unit_of_source ~filename:file ml)
      sources
  in
  Units.check_units ~read_mli:(Hashtbl.find_opt mlis) units

let test_mem_mixed_add () =
  let mli =
    Printf.sprintf "val budget : float %s\nval deadline : float %s\n"
      (mk "cpu-sec") (mk "sim-sec")
  in
  let ml = "let budget = 1.0\nlet deadline = 2.0\nlet slack = budget -. deadline\n" in
  let diags, stats = check_mem [ ("memunit", ml, Some mli) ] in
  Alcotest.(check (list string)) "mixed add fires" [ "units/mixed-add" ]
    (List.map (fun (d : Lint.diag) -> d.rule) diags);
  Alcotest.(check int) "interfaces" 1 stats.Units.ifaces_annotated;
  Alcotest.(check int) "vals" 2 stats.Units.vals_annotated

let test_mem_conforming () =
  let mli =
    Printf.sprintf
      "val coeff : float %s\nval arrival : float %s\nval demand : float %s\n"
      (mk "load-coeff") (mk "rate") (mk "cpu-sec/sim-sec")
  in
  let ml =
    "let coeff = 0.01\nlet arrival = 120.0\nlet demand = coeff *. arrival\n"
  in
  let diags, _ = check_mem [ ("memok", ml, Some mli) ] in
  Alcotest.(check (list string)) "clean" []
    (List.map (fun (d : Lint.diag) -> d.rule) diags)

let test_mem_module_mismatch () =
  (* Seeding recurses into module signatures, and the propagation
     resolves a qualified use through the def-index: the declared
     result dimension disagrees with the body's inferred one. *)
  let mli =
    Printf.sprintf
      "module Inner : sig\n  val arrival : float %s\nend\n\nval lag : float %s\n"
      (mk "rate") (mk "sim-sec")
  in
  let ml =
    "module Inner = struct\n  let arrival = 10.0\nend\n\nlet lag = Inner.arrival\n"
  in
  let diags, _ = check_mem [ ("memmod", ml, Some mli) ] in
  Alcotest.(check (list string)) "declared vs inferred"
    [ "units/dim-mismatch-call" ]
    (List.map (fun (d : Lint.diag) -> d.rule) diags)

let test_mem_unmarked_iface_silent () =
  (* An interface with no marker at all opts out: exported floats there
     are not boundary findings (only annotated interfaces are held to
     the completeness rule). *)
  let mli = "val mystery : float\n" in
  let ml = "let mystery = 42.0\n" in
  let diags, stats = check_mem [ ("memopt", ml, Some mli) ] in
  Alcotest.(check (list string)) "silent" []
    (List.map (fun (d : Lint.diag) -> d.rule) diags);
  Alcotest.(check int) "not annotated" 0 stats.Units.ifaces_annotated

(* --- the shared Allowlist machinery -------------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_allowlist_malformed_aggregated () =
  let text = "lib/a.ml units/ # fine\nbroken\nlib/b.ml\nlib/c.ml det # fine\n" in
  match Allowlist.of_string ~source:"u.allow" text with
  | _ -> Alcotest.fail "malformed allowlist accepted"
  | exception Failure msg ->
    Alcotest.(check bool) "line 2 reported" true (contains ~needle:"u.allow:2" msg);
    Alcotest.(check bool) "line 3 reported too" true
      (contains ~needle:"u.allow:3" msg)

let test_allowlist_normalize () =
  Alcotest.(check string) "build prefix" "lib/a.ml"
    (Allowlist.normalize_path "_build/default/lib/a.ml");
  Alcotest.(check string) "dot-slash" "lib/a.ml"
    (Allowlist.normalize_path "./lib/a.ml");
  Alcotest.(check string) "interleaved" "lib/a.ml"
    (Allowlist.normalize_path "./_build/default/./lib/a.ml")

let test_allowlist_match_and_stale () =
  let text =
    "lib/feasible/volume.mli units/unannotated-boundary # rate^d\n\
     lib/gone.ml units/mixed-add # stale\n"
  in
  let t = Allowlist.of_string ~source:"u.allow" text in
  Alcotest.(check bool) "suffix+prefix match" true
    (Allowlist.allows t ~file:"_build/default/lib/feasible/volume.mli"
       ~rule:"units/unannotated-boundary");
  Alcotest.(check bool) "rule prefix mismatch" false
    (Allowlist.allows t ~file:"lib/feasible/volume.mli" ~rule:"units/bad-marker");
  Alcotest.(check (list (pair string string))) "stale entry surfaces"
    [ ("lib/gone.ml", "units/mixed-add") ]
    (Allowlist.unused t)

let test_allowlist_split_and_prune () =
  let text =
    "# header comment\n\
     lib/a.ml units/mixed # still needed\n\
     lib/gone.ml units/cmp # stale\n\
     \n\
     lib/b.ml det # also stale\n"
  in
  let t = Allowlist.of_string ~source:"u.allow" text in
  let diag =
    { Lint.file = "lib/a.ml"; line = 3; col = 0; rule = "units/mixed-add";
      message = "m" }
  in
  let kept, suppressed =
    Allowlist.split
      ~file:(fun (d : Lint.diag) -> d.file)
      ~rule:(fun (d : Lint.diag) -> d.rule)
      t [ diag ]
  in
  Alcotest.(check int) "suppressed" 1 (List.length suppressed);
  Alcotest.(check int) "kept" 0 (List.length kept);
  (* --fix output: stale entry lines dropped, everything else (the
     header, the blank line, the live entry) byte-identical. *)
  Alcotest.(check string) "prune drops only stale lines"
    "# header comment\nlib/a.ml units/mixed # still needed\n\n"
    (Allowlist.prune t text)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dim_mul_commutative;
      prop_dim_mul_associative;
      prop_dim_one_identity;
      prop_dim_inv_inverse;
      prop_dim_div_mul_inv;
      prop_dim_pow_repeats_mul;
      prop_dim_roundtrip;
      prop_abs_join_commutative;
      prop_abs_join_associative;
      prop_abs_join_idempotent;
      prop_abs_poly_bottom;
      prop_abs_conflict_top;
      prop_abs_leq_order;
      prop_abs_mul_commutative;
      prop_abs_mul_associative;
      prop_abs_poly_mul_identity;
      prop_abs_unknown_absorbs_mul;
      prop_abs_div_mul_inv;
    ]
  @ [
      Alcotest.test_case "parse aliases" `Quick test_parse_aliases;
      Alcotest.test_case "parse signed factors" `Quick
        test_parse_signed_factors;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "mixed dims join to Conflict" `Quick
        test_join_mixed_dims_conflict;
      Alcotest.test_case "fixtures match their expectations" `Quick
        test_fixtures;
      Alcotest.test_case "in-memory mixed add" `Quick test_mem_mixed_add;
      Alcotest.test_case "in-memory conforming" `Quick test_mem_conforming;
      Alcotest.test_case "in-memory module mismatch" `Quick
        test_mem_module_mismatch;
      Alcotest.test_case "unmarked interface opts out" `Quick
        test_mem_unmarked_iface_silent;
      Alcotest.test_case "allowlist reports every malformed line" `Quick
        test_allowlist_malformed_aggregated;
      Alcotest.test_case "allowlist path normalization" `Quick
        test_allowlist_normalize;
      Alcotest.test_case "allowlist matching and staleness" `Quick
        test_allowlist_match_and_stale;
      Alcotest.test_case "allowlist split and prune" `Quick
        test_allowlist_split_and_prune;
    ]
