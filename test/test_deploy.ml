(* Tests of the deployment façade. *)

module Vec = Linalg.Vec
module Tuple = Spe.Tuple
module Value = Spe.Value

let caps = Rod.Problem.homogeneous_caps ~n:3 ~cap:1.

let test_of_cost_model () =
  let graph = Query.Builder.traffic_monitoring ~n_links:3 in
  let d = Deploy.of_cost_model ~graph ~caps () in
  Alcotest.(check int) "assignment covers ops" (Query.Graph.n_ops graph)
    (Array.length (Deploy.assignment d));
  Alcotest.(check bool) "ratio in (0,1]" true (d.Deploy.ratio > 0. && d.Deploy.ratio <= 1.);
  (* Rosters partition the operator names. *)
  let roster_sizes =
    List.init 3 (fun node -> List.length (Deploy.node_roster d node))
  in
  Alcotest.(check int) "rosters partition" (Query.Graph.n_ops graph)
    (List.fold_left ( + ) 0 roster_sizes);
  let text = Deploy.describe d in
  Alcotest.(check bool) "describe mentions nodes" true
    (String.length text > 40)

let test_polish_never_hurts () =
  let graph = Query.Builder.financial_compliance ~n_rules:6 in
  let base = Deploy.of_cost_model ~samples:2048 ~graph ~caps () in
  let polished = Deploy.of_cost_model ~polish:true ~samples:2048 ~graph ~caps () in
  Alcotest.(check bool)
    (Printf.sprintf "polished %.3f >= base %.3f" polished.Deploy.ratio
       base.Deploy.ratio)
    true
    (polished.Deploy.ratio >= base.Deploy.ratio -. 1e-9)

let test_utilization_and_headroom () =
  let graph =
    Query.Builder.example1 ~c1:4e-3 ~c2:6e-3 ~c3:9e-3 ~c4:4e-3 ~s1:1. ~s3:0.5
  in
  let caps = Rod.Problem.homogeneous_caps ~n:2 ~cap:1. in
  let d = Deploy.of_cost_model ~graph ~caps () in
  let rates = Vec.of_list [ 10.; 10. ] in
  let u = Deploy.expected_utilization d ~rates in
  (* Total demand at (10,10) = 10*(10+11)*1e-3 = 0.21 across 2 nodes. *)
  Alcotest.(check bool) "utilizations positive and small" true
    (Vec.for_all (fun x -> x > 0. && x < 0.3) u);
  let h = Deploy.headroom d ~direction:(Vec.of_list [ 1.; 1. ]) in
  (* At scale h, the hottest node sits exactly at 1. *)
  let at_boundary = Deploy.expected_utilization d ~rates:(Vec.of_list [ h; h ]) in
  Alcotest.check (Alcotest.float 1e-6) "boundary utilization" 1.
    (Vec.max_elt at_boundary)

let test_headroom_nonlinear () =
  let graph = Query.Builder.example3 () in
  let caps = Rod.Problem.homogeneous_caps ~n:2 ~cap:100. in
  let d = Deploy.of_cost_model ~graph ~caps () in
  let h = Deploy.headroom d ~direction:(Vec.of_list [ 1.; 1. ]) in
  Alcotest.(check bool) "positive headroom" true (h > 0.);
  let u = Deploy.expected_utilization d ~rates:(Vec.of_list [ h; h ]) in
  Alcotest.(check bool)
    (Printf.sprintf "nonlinear boundary tight (%.4f)" (Vec.max_elt u))
    true
    (abs_float (Vec.max_elt u -. 1.) < 1e-6)

let test_of_network_profiles () =
  let network =
    Spe.Network.create ~n_inputs:1
      ~ops:
        [
          ( Spe.Sop.filter (fun t -> Tuple.number t "v" > 0.5),
            [ Query.Graph.Sys_input 0 ] );
          ( Spe.Sop.aggregate ~window:1. [ ("n", Spe.Sop.Count) ],
            [ Query.Graph.Op_output 0 ] );
        ]
      ()
  in
  let sample =
    [|
      List.init 500 (fun i ->
          Tuple.make
            ~ts:(0.01 *. float_of_int i)
            [ ("v", Value.Float (float_of_int (i mod 10) /. 10.)) ]);
    |]
  in
  let d = Deploy.of_network ~network ~sample ~caps () in
  Alcotest.(check bool) "profile attached" true (d.Deploy.profile <> None);
  Alcotest.(check bool) "network attached" true (d.Deploy.network <> None);
  (* Profiled selectivity of the filter is 0.4 (v in {0.6 .. 0.9}). *)
  match d.Deploy.profile with
  | Some p ->
    Alcotest.check (Alcotest.float 0.01) "measured selectivity" 0.4
      p.Spe.Profiler.estimates.(0).Dsim.Calibrate.selectivities.(0)
  | None -> Alcotest.fail "no profile"

let test_of_query_file () =
  let path = Filename.temp_file "deploy" ".rql" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "stream s (v: int);\nnode big = filter s where v > 10;\noutput big;\n";
      close_out oc;
      let sample =
        [|
          List.init 200 (fun i ->
              Tuple.make ~ts:(0.05 *. float_of_int i) [ ("v", Value.Int (i mod 20)) ]);
        |]
      in
      match Deploy.of_query_file ~path ~sample ~caps () with
      | Error e -> Alcotest.failf "deploy failed: %s" e
      | Ok d ->
        Alcotest.(check int) "one operator" 1 (Array.length (Deploy.assignment d)));
  (* And a broken file reports an error, not an exception. *)
  let bad = Filename.temp_file "deploy" ".rql" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      let oc = open_out bad in
      output_string oc "stream s (v: int);\nnode x = filter s where;\n";
      close_out oc;
      match
        Deploy.of_query_file ~path:bad ~sample:[| [] |] ~caps ()
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected an error")

let test_save_artifacts () =
  let graph = Query.Builder.example2 () in
  (* Example 2's operator costs reach 9 load per unit rate; nodes must
     be able to host that or the static-analysis gate rejects the
     deployment before anything is saved. *)
  let caps = Rod.Problem.homogeneous_caps ~n:2 ~cap:10. in
  let d = Deploy.of_cost_model ~graph ~caps () in
  let dir = Filename.temp_file "deploydir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      Deploy.save d ~dir;
      let files = Sys.readdir dir in
      Array.sort compare files;
      Alcotest.(check (array string)) "artifacts written"
        [| "graph.rodgraph"; "plan.dot"; "plan.rodplan" |]
        files;
      (* The saved pair reloads into the same plan. *)
      let graph' = Query.Graph_io.load ~path:(Filename.concat dir "graph.rodgraph") in
      let plan' =
        Query.Graph_io.load_assignment ~path:(Filename.concat dir "plan.rodplan")
      in
      Alcotest.(check int) "graph reloads" (Query.Graph.n_ops graph)
        (Query.Graph.n_ops graph');
      Alcotest.(check (array int)) "plan reloads" (Deploy.assignment d) plan')

(* The default placer is ROD, with the same plan and QMC estimate as the
   hand-built pipeline; a swapped-in placer runs behind the same gate. *)
let test_placer_argument () =
  let graph = Query.Builder.financial_compliance ~n_rules:6 in
  let problem = Rod.Problem.of_graph graph ~caps in
  let plan = Rod.Rod_algorithm.plan problem in
  let d = Deploy.of_cost_model ~samples:2048 ~graph ~caps () in
  Alcotest.(check (array int)) "default placer is ROD"
    (Rod.Plan.assignment plan) (Deploy.assignment d);
  Alcotest.(check (float 0.)) "same QMC ratio"
    (Rod.Plan.volume_qmc ~samples:2048 plan).Feasible.Volume.ratio d.Deploy.ratio;
  let rng = Random.State.make [| 3 |] in
  let random problem = Baselines.random_balanced ~rng problem in
  let r = Deploy.of_cost_model ~place:random ~samples:2048 ~graph ~caps () in
  Alcotest.(check bool) "baseline placement deployed" true
    (Deploy.assignment r <> Deploy.assignment d);
  let hog = Query.Graph_io.load ~path:"fixtures/infeasible.rodgraph" in
  let placed = ref false in
  let place problem =
    placed := true;
    Rod.Rod_algorithm.place problem
  in
  (match Deploy.of_cost_model ~place ~graph:hog ~caps () with
  | _ -> Alcotest.fail "expected the gate to reject the infeasible model"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "gate runs before the placer" false !placed

let suite =
  [
    Alcotest.test_case "placer argument" `Quick test_placer_argument;
    Alcotest.test_case "of_cost_model" `Quick test_of_cost_model;
    Alcotest.test_case "polish never hurts" `Quick test_polish_never_hurts;
    Alcotest.test_case "utilization and headroom" `Quick
      test_utilization_and_headroom;
    Alcotest.test_case "headroom nonlinear" `Quick test_headroom_nonlinear;
    Alcotest.test_case "of_network profiles" `Quick test_of_network_profiles;
    Alcotest.test_case "of_query_file" `Quick test_of_query_file;
    Alcotest.test_case "save artifacts" `Quick test_save_artifacts;
  ]
