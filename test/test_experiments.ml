(* Tests of the experiment harness plumbing: report rendering, CSV
   export, the experiment registry and the evaluation protocol. *)

let test_table_rendering () =
  let buffer = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buffer in
  Experiments.Report.table fmt ~headers:[ "a"; "bb" ]
    ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ];
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buffer in
  Alcotest.(check bool) "has header" true
    (String.length text > 0
    && List.exists
         (fun line -> line = "| a   | bb |")
         (String.split_on_char '\n' text));
  Alcotest.(check bool) "aligned cell" true
    (List.exists (fun line -> line = "| 333 | 4  |") (String.split_on_char '\n' text))

let test_table_arity_check () =
  let fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Report.table: row arity differs from headers") (fun () ->
      Experiments.Report.table fmt ~headers:[ "a"; "b" ] ~rows:[ [ "only" ] ])

let test_csv_export () =
  let dir = Filename.temp_file "rodcsv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir;
      Experiments.Report.set_csv_dir None)
    (fun () ->
      Experiments.Report.set_csv_dir (Some dir);
      let fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
      Experiments.Report.section fmt "My Test! Section";
      Experiments.Report.table fmt ~headers:[ "x"; "y" ]
        ~rows:[ [ "1"; "has,comma" ]; [ "2"; "has\"quote" ] ];
      let files = Sys.readdir dir in
      Alcotest.(check int) "one csv written" 1 (Array.length files);
      Alcotest.(check string) "slugged name" "my-test--section_1.csv" files.(0);
      let ic = open_in (Filename.concat dir files.(0)) in
      let lines = List.init 3 (fun _ -> input_line ic) in
      close_in ic;
      Alcotest.(check (list string)) "csv content"
        [ "x,y"; "1,\"has,comma\""; "2,\"has\"\"quote\"" ]
        lines)

let test_cells () =
  Alcotest.(check string) "fcell integer" "42" (Experiments.Report.fcell 42.);
  Alcotest.(check string) "fcell fraction" "0.1235"
    (Experiments.Report.fcell 0.123456);
  Alcotest.(check string) "pct" "12.3%" (Experiments.Report.pct 0.1234);
  Alcotest.(check int) "bar clipped" 30
    (String.length (Experiments.Report.bar 5.));
  Alcotest.(check int) "bar empty" 0 (String.length (Experiments.Report.bar (-1.)))

let test_registry () =
  let ids = Experiments.Registry.ids () in
  Alcotest.(check bool) "at least 15 experiments" true (List.length ids >= 15);
  Alcotest.(check int) "ids unique"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "find is case-insensitive" true
    (Experiments.Registry.find "FIG14" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.Registry.find "nope" = None);
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | Some e -> Alcotest.(check string) "id round-trip" id e.Experiments.Registry.id
      | None -> Alcotest.failf "id %s not found" id)
    ids

let test_placers_protocol () =
  let rng = Random.State.make [| 3 |] in
  let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:3 ~ops_per_tree:6 in
  let problem =
    Rod.Problem.of_graph graph ~caps:(Rod.Problem.homogeneous_caps ~n:3 ~cap:1.)
  in
  List.iter
    (fun alg ->
      let assignment = Experiments.Placers.place ~rng ~graph ~problem alg in
      Alcotest.(check int)
        (Experiments.Placers.name alg ^ " assignment length")
        18 (Array.length assignment);
      let ratio =
        Experiments.Placers.mean_ratio ~runs:2 ~samples:512 ~rng ~graph ~problem
          alg
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s ratio %.3f in [0,1]" (Experiments.Placers.name alg)
           ratio)
        true
        (ratio >= 0. && ratio <= 1.))
    Experiments.Placers.all

(* A cheap smoke run of every registered experiment would take minutes;
   instead run the two cheapest end to end to catch wiring breakage. *)
let test_cheap_experiments_run () =
  let fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | Some e -> e.Experiments.Registry.run ~quick:true fmt
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "fig2"; "fig5" ]

(* EXPSPE's cost model is counted, not timed, so the whole report is
   reproducible: two runs are byte-identical and the table is pinned. *)
let test_expspe_golden () =
  let render () =
    let buffer = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buffer in
    (match Experiments.Registry.find "expspe" with
    | Some e -> e.Experiments.Registry.run ~quick:true fmt
    | None -> Alcotest.fail "experiment expspe missing");
    Format.pp_print_flush fmt ();
    Buffer.contents buffer
  in
  let first = render () in
  Alcotest.(check string) "two runs byte-identical" first (render ());
  let rows =
    List.filter
      (fun line -> String.length line > 2 && String.sub line 0 2 = "| ")
      (String.split_on_char '\n' first)
  in
  Alcotest.(check (list string))
    "table rows"
    [
      "| scenario                     | sim util n0/n1 | engine util n0/n1 | \
       sim outputs | engine outputs | max gap  |";
      "| linear @ profiled rate       | 60.1% / 60.9%  | 59.9% / 60.9%     | \
       492         | 456            | 0.2 pts  |";
      "| linear, extrapolated 4x down | 14.4% / 14.7%  | 14.4% / 14.6%     | \
       121         | 456            | 0.0 pts  |";
      "| with join @ profiled rate    | 55.8% / 59.1%  | 55.4% / 70.7%     | \
       439         | 660            | 11.6 pts |";
    ]
    rows

let suite =
  [
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "table arity check" `Quick test_table_arity_check;
    Alcotest.test_case "csv export" `Quick test_csv_export;
    Alcotest.test_case "cells" `Quick test_cells;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "placers protocol" `Quick test_placers_protocol;
    Alcotest.test_case "cheap experiments run" `Quick test_cheap_experiments_run;
    Alcotest.test_case "expspe golden" `Quick test_expspe_golden;
  ]
