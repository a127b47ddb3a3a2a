(* Tests of the protocol typestate analyzer (Analysis.Proto): QCheck
   laws for the typestate lattice and its transfer function, every
   fixture under lint_fixtures/proto re-checked through in-memory
   typechecking (the same sources the rodcheck --fixtures self-test
   compiles), cross-unit hatch resolution, and the allowlist
   error-reporting / --fix pruning. *)

module Proto = Analysis.Proto
module Scan = Analysis.Scan
module Lint = Analysis.Lint
module Allowlist = Analysis.Allowlist
module Comments = Analysis.Comments
module State = Analysis.Proto.State

(* --- typestate lattice laws ---------------------------------------- *)

let arb_state =
  QCheck.make
    (QCheck.Gen.oneofl State.all)
    ~print:State.to_string

let arb_event =
  QCheck.make
    (QCheck.Gen.oneofl State.events)
    ~print:State.event_to_string

let prop_join_commutative =
  QCheck.Test.make ~name:"state join commutative" ~count:200
    (QCheck.pair arb_state arb_state)
    (fun (a, b) -> State.equal (State.join a b) (State.join b a))

let prop_join_associative =
  QCheck.Test.make ~name:"state join associative" ~count:200
    (QCheck.triple arb_state arb_state arb_state)
    (fun (a, b, c) ->
      State.equal
        (State.join a (State.join b c))
        (State.join (State.join a b) c))

let prop_join_idempotent =
  QCheck.Test.make ~name:"state join idempotent" ~count:100 arb_state (fun a ->
      State.equal (State.join a a) a)

let prop_bot_unit =
  QCheck.Test.make ~name:"Bot is the join unit" ~count:100 arb_state (fun a ->
      State.equal (State.join a State.Bot) a
      && State.equal (State.join State.Bot a) a)

let prop_top_absorbing =
  QCheck.Test.make ~name:"Top absorbs" ~count:100 arb_state (fun a ->
      State.equal (State.join a State.Top) State.Top
      && State.equal (State.join State.Top a) State.Top)

let prop_leq_order =
  QCheck.Test.make ~name:"leq is a partial order" ~count:200
    (QCheck.triple arb_state arb_state arb_state)
    (fun (a, b, c) ->
      State.leq a a
      && ((not (State.leq a b && State.leq b a)) || State.equal a b)
      && ((not (State.leq a b && State.leq b c)) || State.leq a c))

let prop_transfer_monotone =
  QCheck.Test.make ~name:"transfer is monotone" ~count:400
    (QCheck.triple arb_event arb_state arb_state)
    (fun (ev, a, b) ->
      QCheck.assume (State.leq a b);
      State.leq (State.transfer ev a) (State.transfer ev b))

(* transfer sub-distributes over join: evaluating on the merged state
   can only lose precision, never invent it.  Full distributivity is
   false — see the witness test below. *)
let prop_transfer_subdistributive =
  QCheck.Test.make ~name:"transfer sub-distributes over join" ~count:400
    (QCheck.triple arb_event arb_state arb_state)
    (fun (ev, a, b) ->
      State.leq
        (State.join (State.transfer ev a) (State.transfer ev b))
        (State.transfer ev (State.join a b)))

let test_not_distributive () =
  (* Joining Resuming with Paused before the Resume loses which resume
     is legal: the merged state goes to Top while both branches resume
     to Running.  This is the precision the per-path walk keeps. *)
  let merged = State.transfer State.Resume (State.join State.Resuming State.Paused) in
  let split =
    State.join
      (State.transfer State.Resume State.Resuming)
      (State.transfer State.Resume State.Paused)
  in
  Alcotest.(check string) "merged loses" "Top" (State.to_string merged);
  Alcotest.(check string) "split keeps" "Running" (State.to_string split)

(* --- the fixtures, via in-memory typechecking ----------------------

   The same sources `rodcheck --fixtures` compiles through dune are
   re-checked here from Scan.unit_of_source, so a fixture regression
   fails dune runtest even when the @lint alias is not built.  The
   expected rule set is each fixture's own rodproto-expect comment;
   scan findings are unioned in exactly as the driver does (the
   aliasing fixture expects a race/* rule Scan owns). *)

let fixture_dir = "lint_fixtures/proto"

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

let rules_of file diags =
  List.filter_map
    (fun (d : Lint.diag) -> if d.file = file then Some d.rule else None)
    diags
  |> List.sort_uniq compare

let test_fixtures () =
  let units = fixture_units () in
  Alcotest.(check bool) "fixtures present" true (List.length units >= 11);
  let proto_diags, stats = Proto.check_units units in
  let scan_diags, _ = Scan.scan_units units in
  let diags = proto_diags @ scan_diags in
  List.iter
    (fun (u : Scan.unit_info) ->
      let expected =
        List.concat_map
          (fun (h : Comments.hit) -> Comments.words h.rest)
          (Comments.find u.Scan.comments Proto.expect_marker)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string))
        (Printf.sprintf "fixture %s" u.Scan.source)
        expected
        (rules_of u.Scan.source diags))
    units;
  Alcotest.(check bool) "conforming hatch used" true (stats.Proto.hatches_used >= 1)

let test_relevant () =
  let units = fixture_units () in
  let conforming =
    List.find
      (fun (u : Scan.unit_info) ->
        Filename.basename u.Scan.source = "proto_conforming.ml")
      units
  in
  Alcotest.(check bool) "protocol fixture is relevant" true
    (Proto.relevant conforming);
  let plain = Scan.unit_of_source ~filename:"plain.ml" "let x = 1\n" in
  Alcotest.(check bool) "unmarked unit is not" false (Proto.relevant plain)

(* --- cross-unit hatch resolution ----------------------------------- *)

let gate_unit =
  "module Plan_check = struct\n\
  \  let assert_ok ok = if not ok then invalid_arg \"plan\"\n\
   end\n\
   let admit () = Plan_check.assert_ok true\n"

let hatched_unit fn =
  Printf.sprintf
    "let assignment = Array.make 4 0 (* rodproto: role deployed-assignment \
     *)\n\
     let migrate op dest =\n\
    \  (* rodproto: gated-by %s — justified elsewhere *)\n\
    \  assignment.(op) <- dest\n"
    fn

let check_two_units fn =
  let a = Scan.unit_of_source ~filename:"gates.ml" gate_unit in
  let b = Scan.unit_of_source ~filename:"engine.ml" (hatched_unit fn) in
  let diags, _ = Proto.check_units [ a; b ] in
  List.sort_uniq compare (List.map (fun (d : Lint.diag) -> d.rule) diags)

let test_hatch_cross_unit () =
  Alcotest.(check (list string)) "hatch naming a real gate is clean" []
    (check_two_units "Gates.admit")

let test_hatch_unknown_fn () =
  Alcotest.(check (list string)) "hatch naming nothing goes stale"
    [ "proto/stale-gate" ]
    (check_two_units "Gates.no_such_function")

(* --- allowlist: all malformed lines in one failure, and pruning ---- *)

let test_allowlist_all_malformed () =
  let text = "lib/a.ml det # fine\nbroken\nlib/b.ml\nlib/c.ml race # fine\n" in
  match Allowlist.of_string ~source:"t.allow" text with
  | _ -> Alcotest.fail "malformed allowlist accepted"
  | exception Failure msg ->
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec go i =
        i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "line 2 reported" true (contains "t.allow:2");
    Alcotest.(check bool) "line 3 reported too" true (contains "t.allow:3")

let test_allowlist_prune () =
  let text =
    "# header comment\n\
     lib/a.ml det # still needed\n\
     lib/gone.ml race # stale\n\
     \n\
     lib/b.ml hot # also stale\n"
  in
  let allowlist = Allowlist.of_string ~source:"t.allow" text in
  let diag =
    { Lint.file = "lib/a.ml"; line = 1; col = 0; rule = "det/taint"; message = "m" }
  in
  let kept, suppressed =
    Allowlist.split
      ~file:(fun (d : Lint.diag) -> d.file)
      ~rule:(fun (d : Lint.diag) -> d.rule)
      allowlist [ diag ]
  in
  Alcotest.(check int) "suppressed" 1 (List.length suppressed);
  Alcotest.(check int) "kept" 0 (List.length kept);
  Alcotest.(check string) "stale lines dropped, rest untouched"
    "# header comment\nlib/a.ml det # still needed\n\n" (Allowlist.prune allowlist text)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_join_commutative;
      prop_join_associative;
      prop_join_idempotent;
      prop_bot_unit;
      prop_top_absorbing;
      prop_leq_order;
      prop_transfer_monotone;
      prop_transfer_subdistributive;
    ]
  @ [
      Alcotest.test_case "transfer/join distributivity fails (witness)" `Quick
        test_not_distributive;
      Alcotest.test_case "fixtures match their expectations" `Quick
        test_fixtures;
      Alcotest.test_case "relevance detection" `Quick test_relevant;
      Alcotest.test_case "hatch resolves across units" `Quick
        test_hatch_cross_unit;
      Alcotest.test_case "hatch naming nothing is stale" `Quick
        test_hatch_unknown_fn;
      Alcotest.test_case "allowlist reports every malformed line" `Quick
        test_allowlist_all_malformed;
      Alcotest.test_case "allowlist prune drops only stale entries" `Quick
        test_allowlist_prune;
    ]
