(* Tests of the query-language front end: lexer, parser, type checker,
   and compiled execution against hand-built networks. *)

module Ast = Cql.Ast
module Lexer = Cql.Lexer
module Parser = Cql.Parser
module Check = Cql.Check
module Frontend = Cql.Frontend
module Tuple = Spe.Tuple
module Value = Spe.Value

let monitoring_source =
  {|
-- per-feed cleaning and aggregation, then a cross-feed join
stream packets (src: string, bytes: int, proto: string);
stream flows   (src: string, bytes: int, proto: string);

node cleanP = filter packets where proto != "icmp" and bytes > 40;
node volP   = aggregate cleanP window 2.0 by src
              compute { volume = sum(bytes), n = count() };
node heavyP = filter volP where volume > 1000.0;

node cleanF = filter flows where proto != "icmp";
node volF   = aggregate cleanF window 2.0 by src
              compute { volume = sum(bytes) };

node corr   = join heavyP, volF window 4.0 on group == group;
node slim   = select corr keep l_group, l_volume, r_volume;
output slim;
|}

(* --- lexer --- *)

let test_lexer_tokens () =
  let tokens = List.map fst (Lexer.tokenize "node x = filter y where a >= 1.5;") in
  Alcotest.(check bool) "token stream" true
    (tokens
    = [
        Lexer.NODE; Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.FILTER;
        Lexer.IDENT "y"; Lexer.WHERE; Lexer.IDENT "a"; Lexer.GE;
        Lexer.FLOAT 1.5; Lexer.SEMI; Lexer.EOF;
      ])

let test_lexer_positions_and_comments () =
  let tokens = Lexer.tokenize "-- comment\n  stream s" in
  match tokens with
  | (Lexer.STREAM, p1) :: (Lexer.IDENT "s", p2) :: _ ->
    Alcotest.(check int) "line" 2 p1.Ast.line;
    Alcotest.(check int) "col" 3 p1.Ast.col;
    Alcotest.(check int) "ident col" 10 p2.Ast.col
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_strings () =
  match Lexer.tokenize {|"a\"b\n"|} with
  | (Lexer.STRING s, _) :: _ -> Alcotest.(check string) "escapes" "a\"b\n" s
  | _ -> Alcotest.fail "expected a string token"

let test_lexer_rejects_garbage () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Lexer.tokenize "node @ x");
       false
     with Lexer.Error _ -> true);
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Lexer.tokenize "\"abc");
       false
     with Lexer.Error _ -> true)

(* --- parser --- *)

let test_parse_program_shape () =
  let program = Parser.parse monitoring_source in
  Alcotest.(check int) "10 declarations" 10 (List.length program);
  match List.nth program 2 with
  | Ast.Node_decl { name = "cleanP"; body = Ast.Filter _; _ } -> ()
  | _ -> Alcotest.fail "third declaration should be node cleanP = filter"

let test_parse_precedence () =
  (* 1 + 2 * 3 < 10 and not a == b  parses as
     (((1 + (2*3)) < 10) and (not (a == b))) *)
  match Parser.parse "node x = filter y where 1 + 2 * 3 < 10 and not a == b;" with
  | [ Ast.Node_decl { body = Ast.Filter { predicate; _ }; _ } ] ->
    let rendered = Format.asprintf "%a" Ast.pp_expr predicate in
    Alcotest.(check string) "precedence" "(((1 + (2 * 3)) < 10) and (not (a == b)))"
      rendered
  | _ -> Alcotest.fail "parse failed"

let test_parse_errors_have_positions () =
  List.iter
    (fun (source, fragment) ->
      match Parser.parse source with
      | exception Parser.Error (pos, msg) ->
        Alcotest.(check bool)
          (Printf.sprintf "position set for %s (%s)" fragment msg)
          true
          (pos.Ast.line >= 1)
      | exception Lexer.Error _ -> ()
      | _ -> Alcotest.failf "expected a parse error for %s" fragment)
    [
      ("stream s bytes: int);", "missing paren");
      ("node x = filter;", "missing input");
      ("node x = aggregate y window compute { n = count() };", "missing window");
      ("output;", "missing name");
      ("node x = filter y where a >;", "dangling operator");
    ]

(* --- checker --- *)

let expect_check_error source fragment =
  match Check.check (Parser.parse source) with
  | exception Check.Error (_, msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: error mentions %S (got %S)" fragment fragment msg)
      true
      (let lower = String.lowercase_ascii msg in
       String.length lower > 0)
  | _ -> Alcotest.failf "expected a check error: %s" fragment

let test_check_errors () =
  expect_check_error "stream s (a: int); node x = filter s where b > 1; output x;"
    "unknown field";
  expect_check_error "stream s (a: int); node x = filter s where a + 1; output x;"
    "non-boolean predicate";
  expect_check_error
    "stream s (a: string); node x = filter s where a > 1; output x;"
    "string vs number";
  expect_check_error "stream s (a: int); stream s (b: int);" "duplicate stream";
  expect_check_error "stream s (a: int); node x = filter t where a > 1; output x;"
    "unknown input";
  expect_check_error
    "stream s (a: int); stream t (b: int);\n\
     node x = merge s, t; output x;"
    "merge schema mismatch";
  expect_check_error
    "stream s (a: string); node x = aggregate s window 1.0 compute { m = \
     sum(a) }; output x;"
    "sum over string";
  expect_check_error "stream s (a: int); node x = filter s where a > 1;"
    "dead end without output";
  expect_check_error
    "stream s (a: int); node x = filter s where a > 1;\n\
     node y = filter x where a > 2; output x; output y;"
    "output consumed downstream";
  expect_check_error
    "stream s (a: int); stream t (a: string);\n\
     node x = join s, t window 1.0 on a == a; output x;"
    "join key type mismatch"

let test_check_more_errors () =
  expect_check_error
    "stream s (a: int);\n\
     node x = select s keep a, b; output x;"
    "select of unknown field";
  expect_check_error
    "stream s (a: int);\n\
     node x = aggregate s window 1.0 by a compute { group = count() }; output x;"
    "reserved group field";
  expect_check_error
    "stream s (a: int);\n\
     node x = distinct s window 1.0 on nope; output x;"
    "distinct on unknown key";
  expect_check_error
    "stream s (a: int);\n\
     node x = aggregate s window 0.0 compute { n = count() }; output x;"
    "zero window";
  expect_check_error "output x;" "output before any node";
  expect_check_error "stream s (a: int);" "no output at all"

let test_check_map_overwrites_type () =
  (* map may change a field's type; downstream sees the new one. *)
  let checked =
    Check.check
      (Parser.parse
         "stream s (a: int);\n\
          node x = map s set { a = a / 2 };\n\
          node y = filter x where a < 0.5; output y;")
  in
  let x = List.find (fun n -> n.Check.name = "x") checked.Check.nodes in
  Alcotest.(check (list (pair string string))) "a became float"
    [ ("a", "float") ]
    (List.map
       (fun (f, t) -> (f, Format.asprintf "%a" Ast.pp_field_type t))
       x.Check.schema)

let test_check_schemas () =
  let checked = Check.check (Parser.parse monitoring_source) in
  let node name =
    List.find (fun n -> n.Check.name = name) checked.Check.nodes
  in
  Alcotest.(check (list (pair string string)))
    "aggregate schema"
    [ ("group", "string"); ("n", "int"); ("volume", "float") ]
    (List.map
       (fun (f, t) -> (f, Format.asprintf "%a" Ast.pp_field_type t))
       (node "volP").Check.schema);
  Alcotest.(check (list string)) "join schema prefixes"
    [ "l_group"; "l_n"; "l_volume"; "r_group"; "r_volume" ]
    (List.map fst (node "corr").Check.schema);
  Alcotest.(check (list string)) "outputs" [ "slim" ] checked.Check.outputs

let test_expr_typing () =
  let schema = [ ("a", Ast.T_int); ("b", Ast.T_float); ("s", Ast.T_string) ] in
  let typ source =
    match Parser.parse (Printf.sprintf "node x = filter y where %s;" source) with
    | [ Ast.Node_decl { body = Ast.Filter { predicate; _ }; _ } ] ->
      Check.type_of_expr schema predicate
    | _ -> Alcotest.fail "parse failure"
  in
  Alcotest.(check bool) "int + int stays comparison-ready" true
    (typ "a + 1 > 0" = `Bool);
  Alcotest.(check bool) "division is float" true (typ "a / 2 == 1.0" = `Bool);
  Alcotest.(check bool) "string equality" true (typ "s == \"x\"" = `Bool)

(* --- compiled execution --- *)

let packet ~ts ~src ~bytes ~proto =
  Tuple.make ~ts
    [
      ("src", Value.Str src); ("bytes", Value.Int bytes);
      ("proto", Value.Str proto);
    ]

let test_compile_and_run () =
  match Frontend.compile_string monitoring_source with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok compiled ->
    Alcotest.(check int) "two inputs" 2
      (Spe.Network.n_inputs compiled.Cql.Compile.network);
    Alcotest.(check int) "seven nodes" 7
      (Spe.Network.n_ops compiled.Cql.Compile.network);
    (* Feed correlated data: host h1 is heavy on both feeds in window
       [0,2); host h2 only on feed 1. *)
    let packets =
      [
        packet ~ts:0.1 ~src:"h1" ~bytes:800 ~proto:"tcp";
        packet ~ts:0.2 ~src:"h1" ~bytes:900 ~proto:"tcp";
        packet ~ts:0.3 ~src:"h2" ~bytes:100 ~proto:"tcp";
        packet ~ts:0.4 ~src:"h1" ~bytes:30 ~proto:"tcp" (* dropped: <= 40 *);
        packet ~ts:0.5 ~src:"h1" ~bytes:500 ~proto:"icmp" (* dropped *);
        (* next window forces the flush *)
        packet ~ts:2.5 ~src:"h3" ~bytes:50 ~proto:"tcp";
        packet ~ts:4.5 ~src:"h3" ~bytes:50 ~proto:"tcp";
      ]
    in
    let flows =
      [
        packet ~ts:0.6 ~src:"h1" ~bytes:10 ~proto:"tcp";
        packet ~ts:2.4 ~src:"h9" ~bytes:10 ~proto:"tcp";
        packet ~ts:4.4 ~src:"h9" ~bytes:10 ~proto:"tcp";
      ]
    in
    let result =
      Spe.Executor.run compiled.Cql.Compile.network ~inputs:[| packets; flows |]
    in
    (* heavyP window [0,2): h1 volume 1700 (> 1000), h2 100 (no).
       volF window [0,2): h1 volume 10.  Join at window end ts=2:
       l=(h1,1700), r=(h1,10) -> one correlated alert. *)
    (match result.Spe.Executor.outputs with
    | [ (_, alert) ] ->
      Alcotest.(check string) "correlated host" "h1"
        (Value.to_string (Tuple.find alert "l_group"));
      Alcotest.check (Alcotest.float 1e-9) "left volume" 1700.
        (Tuple.number alert "l_volume");
      Alcotest.check (Alcotest.float 1e-9) "right volume" 10.
        (Tuple.number alert "r_volume");
      Alcotest.(check (list string)) "projected fields"
        [ "l_group"; "l_volume"; "r_volume" ]
        (Tuple.names alert)
    | other -> Alcotest.failf "expected 1 alert, got %d" (List.length other))

let test_compiled_map_arithmetic () =
  let source =
    "stream s (a: int, b: float);\n\
     node x = map s set { c = a * 2 + 1, d = b / 2.0, e = \"tag\" };\n\
     output x;"
  in
  match Frontend.compile_string source with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok compiled ->
    let input = Tuple.make ~ts:1. [ ("a", Value.Int 5); ("b", Value.Float 3.) ] in
    let result =
      Spe.Executor.run compiled.Cql.Compile.network ~inputs:[| [ input ] |]
    in
    (match result.Spe.Executor.outputs with
    | [ (_, t) ] ->
      Alcotest.(check int) "int arithmetic" 11 (Value.to_int (Tuple.find t "c"));
      Alcotest.check (Alcotest.float 1e-9) "float division" 1.5
        (Tuple.number t "d");
      Alcotest.(check string) "string literal" "tag"
        (Value.to_string (Tuple.find t "e"))
    | other -> Alcotest.failf "expected 1 tuple, got %d" (List.length other))

let test_frontend_reports_positions () =
  match Frontend.compile_string "stream s (a: int)\nnode x = filter s;" with
  | Error e ->
    Alcotest.(check bool) "has position" true (e.Frontend.pos <> None);
    Alcotest.(check bool) "message readable" true
      (String.length (Frontend.error_to_string e) > 10)
  | Ok _ -> Alcotest.fail "expected an error"

let test_frontend_describe () =
  match Frontend.compile_string monitoring_source with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok compiled ->
    let text = Frontend.describe compiled in
    let contains needle =
      let nl = String.length needle and tl = String.length text in
      let rec scan i =
        i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
      in
      scan 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "describe mentions %s" needle)
          true (contains needle))
      [ "packets"; "volP"; "node 1: volP = aggregate"; "output: slim" ]

let test_sliding_window_syntax () =
  let source =
    "stream s (v: int);\n\
     node x = aggregate s window 4.0 slide 2.0 compute { total = sum(v) };\n\
     output x;"
  in
  match Frontend.compile_string source with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok compiled ->
    (match Spe.Network.op compiled.Cql.Compile.network 0 with
    | Spe.Sop.Aggregate { window; slide; _ } ->
      Alcotest.check (Alcotest.float 1e-12) "window" 4. window;
      Alcotest.check (Alcotest.float 1e-12) "slide" 2. slide
    | _ -> Alcotest.fail "expected an aggregate");
    (* Run it: tuples at 0..7 with v = i; first emission at boundary 2
       sums 0+1. *)
    let inputs =
      [|
        List.init 8 (fun i ->
            Tuple.make ~ts:(float_of_int i) [ ("v", Value.Int i) ]);
      |]
    in
    let result = Spe.Executor.run compiled.Cql.Compile.network ~inputs in
    (match result.Spe.Executor.outputs with
    | (_, first) :: _ ->
      Alcotest.check (Alcotest.float 1e-9) "first boundary" 2. (Tuple.ts first);
      Alcotest.check (Alcotest.float 1e-9) "first sum" 1. (Tuple.number first "total")
    | [] -> Alcotest.fail "no outputs");
    Alcotest.(check int) "five emissions" 5
      (List.length result.Spe.Executor.outputs)

let test_distinct_syntax () =
  let source =
    "stream s (k: string, v: int);\n\
     node once = distinct s window 10.0 on k;\n\
     output once;"
  in
  match Frontend.compile_string source with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok compiled ->
    let mk ~ts k =
      Tuple.make ~ts [ ("k", Value.Str k); ("v", Value.Int 0) ]
    in
    let result =
      Spe.Executor.run compiled.Cql.Compile.network
        ~inputs:[| [ mk ~ts:0. "a"; mk ~ts:1. "a"; mk ~ts:2. "b" ] |]
    in
    Alcotest.(check int) "two distinct keys" 2
      (List.length result.Spe.Executor.outputs)

let test_bad_slide_rejected () =
  match
    Frontend.compile_string
      "stream s (v: int);\n\
       node x = aggregate s window 4.0 slide 0.0 compute { n = count() };\n\
       output x;"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero slide should be rejected"

(* --- printer round-trips --- *)

let zero = { Ast.line = 0; col = 0 }

let rec strip_expr = function
  | Ast.Field (n, _) -> Ast.Field (n, zero)
  | Ast.Int_lit (i, _) -> Ast.Int_lit (i, zero)
  | Ast.Float_lit (f, _) -> Ast.Float_lit (f, zero)
  | Ast.Str_lit (s, _) -> Ast.Str_lit (s, zero)
  | Ast.Unary (op, e) -> Ast.Unary (op, strip_expr e)
  | Ast.Binary (op, a, b, _) -> Ast.Binary (op, strip_expr a, strip_expr b, zero)

let strip_call = function
  | Ast.Agg_count -> Ast.Agg_count
  | Ast.Agg_sum (f, _) -> Ast.Agg_sum (f, zero)
  | Ast.Agg_avg (f, _) -> Ast.Agg_avg (f, zero)
  | Ast.Agg_min (f, _) -> Ast.Agg_min (f, zero)
  | Ast.Agg_max (f, _) -> Ast.Agg_max (f, zero)

let strip_name (n, _) = (n, zero)

let strip_body = function
  | Ast.Filter { input; predicate } ->
    Ast.Filter { input = strip_name input; predicate = strip_expr predicate }
  | Ast.Map { input; assignments } ->
    Ast.Map
      {
        input = strip_name input;
        assignments = List.map (fun (f, e) -> (f, strip_expr e)) assignments;
      }
  | Ast.Select { input; keep } ->
    Ast.Select { input = strip_name input; keep = List.map strip_name keep }
  | Ast.Merge inputs -> Ast.Merge (List.map strip_name inputs)
  | Ast.Aggregate { input; window; slide; group_by; compute } ->
    Ast.Aggregate
      {
        input = strip_name input;
        window;
        slide;
        group_by = Option.map strip_name group_by;
        compute = List.map (fun (o, c) -> (o, strip_call c)) compute;
      }
  | Ast.Join { left; right; window; left_key; right_key } ->
    Ast.Join
      {
        left = strip_name left;
        right = strip_name right;
        window;
        left_key = strip_name left_key;
        right_key = strip_name right_key;
      }
  | Ast.Distinct { input; window; key } ->
    Ast.Distinct { input = strip_name input; window; key = strip_name key }

let strip_decl = function
  | Ast.Stream_decl { name; fields; _ } -> Ast.Stream_decl { name; pos = zero; fields }
  | Ast.Node_decl { name; body; _ } ->
    Ast.Node_decl { name; pos = zero; body = strip_body body }
  | Ast.Output_decl (n, _) -> Ast.Output_decl (n, zero)

let strip_program = List.map strip_decl

let test_printer_roundtrip () =
  List.iter
    (fun source ->
      let ast = Parser.parse source in
      let printed = Cql.Printer.program_to_string ast in
      let back = Parser.parse printed in
      if strip_program ast <> strip_program back then
        Alcotest.failf "round-trip failed:\n%s" printed)
    [
      monitoring_source;
      "stream s (v: int);\n\
       node x = aggregate s window 4.0 slide 2.0 compute { t = sum(v) };\n\
       output x;";
      "stream s (a: int, b: float, c: string);\n\
       node m = map s set { d = -a * 2 + 3, e = \"x\\\"y\" };\n\
       node f = filter m where not (a > 1 or b < 2.0) and c != \"q\";\n\
       node p = select f keep a, d;\n\
       output p;";
      "stream s (a: int); stream t (a: int);\n\
       node u = merge s, t;\n\
       node j = join u, u window 1.5 on a == a;\n\
       output j;";
      "stream s (k: string);\n\
       node once = distinct s window 10.0 on k;\n\
       output once;";
    ]

let expr_gen =
  let open QCheck.Gen in
  let field = oneofl [ "a"; "b" ] >|= fun n -> Ast.Field (n, zero) in
  let literal =
    oneof
      [
        (0 -- 100 >|= fun i -> Ast.Int_lit (i, zero));
        (float_bound_inclusive 50. >|= fun f -> Ast.Float_lit (f, zero));
        (oneofl [ "x"; "hello"; "a b" ] >|= fun s -> Ast.Str_lit (s, zero));
      ]
  in
  (* Numeric expressions only (so any tree types if a,b are numeric). *)
  let rec numeric n =
    if n = 0 then oneof [ field; literal ]
    else
      frequency
        [
          (2, oneof [ field; literal ]);
          ( 3,
            let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
            let* a = numeric (n - 1) in
            let* b = numeric (n - 1) in
            return (Ast.Binary (op, a, b, zero)) );
          (1, numeric (n - 1) >|= fun e -> Ast.Unary (Ast.Neg, e));
        ]
  in
  numeric 4

(* Printing then parsing any generated expression yields the same tree
   (strings excluded from arithmetic by the generator's shape is not
   guaranteed, so we only require a successful reparse-identical AST at
   the syntax level — types are not checked here). *)
let prop_expr_print_parse_roundtrip =
  QCheck.Test.make ~name:"expression print/parse round-trip" ~count:300
    (QCheck.make expr_gen) (fun expr ->
      let printed =
        Format.asprintf "node x = filter y where %a == 0;" Cql.Printer.pp_expr
          expr
      in
      match Parser.parse printed with
      | [ Ast.Node_decl { body = Ast.Filter { predicate; _ }; _ } ] -> (
        match strip_expr predicate with
        | Ast.Binary (Ast.Eq, left, Ast.Int_lit (0, _), _) ->
          left = strip_expr expr
        | _ -> false)
      | _ -> false)

(* End to end with placement: compile, profile on data, place. *)
let test_cql_to_placement () =
  match Frontend.compile_string monitoring_source with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok compiled ->
    let rng = Random.State.make [| 4 |] in
    let trace = Workload.Trace.create ~dt:1. (Array.make 10 100.) in
    let inputs =
      [|
        Spe.Datagen.packets ~rng ~trace ~hosts:6 ();
        Spe.Datagen.packets ~rng ~trace ~hosts:6 ();
      |]
    in
    let profile = Spe.Profiler.profile compiled.Cql.Compile.network ~inputs in
    let problem =
      Rod.Problem.of_graph profile.Spe.Profiler.graph
        ~caps:(Rod.Problem.homogeneous_caps ~n:3 ~cap:1.)
    in
    let assignment = Rod.Rod_algorithm.place problem in
    Alcotest.(check int) "placement covers the query" 7 (Array.length assignment)

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer positions/comments" `Quick
      test_lexer_positions_and_comments;
    Alcotest.test_case "lexer strings" `Quick test_lexer_strings;
    Alcotest.test_case "lexer rejects garbage" `Quick test_lexer_rejects_garbage;
    Alcotest.test_case "parse program shape" `Quick test_parse_program_shape;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse errors have positions" `Quick
      test_parse_errors_have_positions;
    Alcotest.test_case "check errors" `Quick test_check_errors;
    Alcotest.test_case "check more errors" `Quick test_check_more_errors;
    Alcotest.test_case "map overwrites type" `Quick test_check_map_overwrites_type;
    Alcotest.test_case "check schemas" `Quick test_check_schemas;
    Alcotest.test_case "expression typing" `Quick test_expr_typing;
    Alcotest.test_case "compile and run" `Quick test_compile_and_run;
    Alcotest.test_case "compiled map arithmetic" `Quick
      test_compiled_map_arithmetic;
    Alcotest.test_case "frontend reports positions" `Quick
      test_frontend_reports_positions;
    Alcotest.test_case "frontend describe" `Quick test_frontend_describe;
    Alcotest.test_case "printer round-trip" `Quick test_printer_roundtrip;
    QCheck_alcotest.to_alcotest prop_expr_print_parse_roundtrip;
    Alcotest.test_case "sliding window syntax" `Quick test_sliding_window_syntax;
    Alcotest.test_case "distinct syntax" `Quick test_distinct_syntax;
    Alcotest.test_case "bad slide rejected" `Quick test_bad_slide_rejected;
    Alcotest.test_case "cql to placement" `Quick test_cql_to_placement;
  ]
