(* The full loop on a REAL engine, not just the cost simulator:

     1. define a semantic query network (executable operators over
        typed tuples);
     2. run it on sample data and check it computes what it should;
     3. profile it: exact selectivities from counts, per-tuple costs
        from a fixed unit per operator kind (the paper's §7.1
        methodology, with load as a count rather than a timing);
     4. hand the counted cost model to ROD for a resilient placement;
     5. stress the placement in the discrete-event simulator at rates
        the sample run never saw.

   Run with: dune exec examples/end_to_end.exe *)

module Graph = Query.Graph
module Sop = Spe.Sop
module Tuple = Spe.Tuple
module Value = Spe.Value

(* A small intrusion-detection-flavoured network over two packet
   feeds: per-feed cleaning, per-source volume aggregation, a
   cross-feed correlation join, and an alert thinning stage. *)
let monitoring_network () =
  Spe.Network.create ~n_inputs:2
    ~ops:
      [
        (* 0: drop icmp noise on feed A *)
        ( Sop.filter ~name:"cleanA" (fun t ->
              Value.to_string (Tuple.find t "proto") <> "icmp"),
          [ Graph.Sys_input 0 ] );
        (* 1: per-source byte volume on 2 s windows *)
        ( Sop.aggregate ~name:"volA" ~window:2. ~group_by:"src"
            [ ("bytes", Sop.Sum "bytes"); ("n", Sop.Count) ],
          [ Graph.Op_output 0 ] );
        (* 2: heavy hitters only *)
        ( Sop.filter ~name:"heavyA" (fun t -> Tuple.number t "bytes" > 18000.),
          [ Graph.Op_output 1 ] );
        (* 3-5: same pipeline on feed B *)
        ( Sop.filter ~name:"cleanB" (fun t ->
              Value.to_string (Tuple.find t "proto") <> "icmp"),
          [ Graph.Sys_input 1 ] );
        ( Sop.aggregate ~name:"volB" ~window:2. ~group_by:"src"
            [ ("bytes", Sop.Sum "bytes"); ("n", Sop.Count) ],
          [ Graph.Op_output 3 ] );
        ( Sop.filter ~name:"heavyB" (fun t -> Tuple.number t "bytes" > 18000.),
          [ Graph.Op_output 4 ] );
        (* 6: sources heavy on BOTH feeds within 4 s *)
        ( Sop.equi_join ~name:"correlate" ~window:4. ~left_key:"group"
            ~right_key:"group" (),
          [ Graph.Op_output 2; Graph.Op_output 5 ] );
        (* 7: final projection for the application *)
        (Sop.project ~name:"alert" [ "l_group"; "l_bytes"; "r_bytes" ],
          [ Graph.Op_output 6 ] );
      ]
    ()

let () =
  let network = monitoring_network () in
  Format.printf "semantic network: %d operators, 2 input feeds@."
    (Spe.Network.n_ops network);

  (* 2. sample run on synthetic packet data. *)
  let rng = Random.State.make [| 1 |] in
  let trace = Workload.Trace.create ~dt:1. (Array.make 20 200.) in
  let inputs =
    [|
      Spe.Datagen.packets ~rng ~trace ~hosts:8 ();
      Spe.Datagen.packets ~rng ~trace ~hosts:8 ();
    |]
  in
  let profile = Spe.Profiler.profile network ~inputs in
  let run = profile.Spe.Profiler.run in
  Format.printf "sample run: %d + %d packets in, %d alerts out@."
    (List.length inputs.(0)) (List.length inputs.(1))
    (List.length run.Spe.Executor.outputs);
  (match run.Spe.Executor.outputs with
  | (_, alert) :: _ -> Format.printf "first alert: %a@." Tuple.pp alert
  | [] -> ());

  (* 3. the counted cost model. *)
  Format.printf "@.counted operator profiles:@.";
  Array.iteri
    (fun j (e : Dsim.Calibrate.estimate) ->
      let sop = Spe.Network.op network j in
      let selectivity =
        Option.value e.sel_per_pair ~default:e.selectivities.(0)
      in
      Format.printf "  %-10s %-9s cost %6.1f ns   selectivity %6.3f@."
        (Sop.name sop) (Sop.kind sop)
        (1e9 *. Spe.Profiler.unit_cost sop)
        selectivity)
    profile.Spe.Profiler.estimates;

  (* 4. resilient placement on the counted model. *)
  let caps = Rod.Problem.homogeneous_caps ~n:3 ~cap:1. in
  let problem = Rod.Problem.of_model
      (Query.Load_model.derive profile.Spe.Profiler.graph) ~caps
  in
  let plan = Rod.Rod_algorithm.plan problem in
  Format.printf "@.%a@." Rod.Plan.pp plan;
  let est = Rod.Plan.volume_qmc ~samples:8192 plan in
  Format.printf "feasible-set ratio vs ideal: %.3f@." est.Feasible.Volume.ratio;

  (* 5. stress the placement far beyond the profiled rates.  The join
     makes the model nonlinear, so pick system rates on the balanced ray
     of the two PHYSICAL inputs that land at ~70% utilization of the
     plan (bisection against the true nonlinear loads). *)
  let model = Query.Load_model.derive profile.Spe.Profiler.graph in
  let ln = Rod.Plan.node_loads plan in
  let util_at scale =
    let sys_rates = Linalg.Vec.of_list [ scale; scale ] in
    let vars = Query.Load_model.eval_vars model ~sys_rates in
    Linalg.Vec.max_elt
      (Linalg.Vec.init (Linalg.Mat.rows ln) (fun i ->
           Linalg.Vec.dot (Linalg.Mat.row ln i) vars /. caps.(i)))
  in
  let rec bisect lo hi n =
    if n = 0 then lo
    else
      let mid = (lo +. hi) /. 2. in
      if util_at mid < 0.7 then bisect mid hi (n - 1) else bisect lo mid (n - 1)
  in
  let scale = bisect 0. 1e6 60 in
  Format.printf
    "@.stress rates: %.0f tuples/s per feed (drives the hottest node to 70%%)@."
    scale;
  let verdict =
    Dsim.Probe.probe_point ~duration:10. ~graph:profile.Spe.Profiler.graph
      ~assignment:(Rod.Plan.assignment plan) ~caps
      ~rates:(Linalg.Vec.of_list [ scale; scale ])
      ()
  in
  Format.printf "simulated at stress rates: feasible=%b, max util %.1f%%@."
    verdict.Dsim.Probe.feasible
    (100. *. Dsim.Sim_metrics.max_utilization verdict.Dsim.Probe.metrics)
