(* drift-replan: the control plane at the m = 10k scale.  10 000
   operators over 5 input trees on 256 unit-capacity nodes, deployed
   with polish, then a seeded chain of drifted rate points through
   budgeted replans.  Its engine run is a short [Dsim.Engine] run of the
   polished deployment at a light, even rate on every stream, confirming
   the plan in the simulator; at this operator count the engine's
   per-item bookkeeping, not the work itself, dominates. *)

let name = "drift-replan"
let n_inputs = 5
let ops_per_tree = 2000
let n_nodes = 256
let deploy_samples = 2048
let drift_chains = 1
let drift_points = 6
let chunks = 1
let engine_runs = 8

(* The engine run: evenly spaced arrivals on every stream at
   [probe_share] of the ideal balanced rate (total capacity over the
   summed load coefficients), for [probe_seconds] simulated seconds. *)
let probe_share = 0.02
let probe_seconds = 0.5

type env = {
  graph : Query.Graph.t;
  caps : Linalg.Vec.t;
  arrivals : float list array;
  seed : int;
}

let graph env = env.graph
let caps env = env.caps

(* The graph is part of the workload's definition, drawn from a fixed
   seed: the local-search polish time of a random 10k-operator graph
   varies by more than an order of magnitude between graph seeds (see
   NOTES.md), which would drown every timing.  The run's seed drives
   the drift chain and the engine's selectivity draws instead. *)
let graph_seed = 1

let setup ~seed =
  let graph =
    Harness.layer "query.graph_build_s" (fun () ->
        Query.Randgraph.generate_trees
          ~rng:(Random.State.make [| graph_seed; 0xd1f7 |])
          ~n_inputs ~ops_per_tree)
  in
  let arrivals =
    Harness.layer "workload.trace_gen_s" (fun () ->
        let l =
          Query.Load_model.total_coefficients (Query.Load_model.derive graph)
        in
        let total_l = Array.fold_left ( +. ) 0. l in
        let rate = probe_share *. float_of_int n_nodes /. total_l in
        let trace =
          Workload.Trace.create ~dt:probe_seconds [| rate |]
        in
        Array.make n_inputs (Workload.Generators.deterministic_arrivals ~trace))
  in
  {
    graph;
    caps = Rod.Problem.homogeneous_caps ~n:n_nodes ~cap:1.;
    arrivals;
    seed;
  }

let engine env (dep : Deploy.t) ~chunk:_ =
  let events_before = Workload_sig.events_total () in
  let m =
    Harness.layer "dsim.engine_run_s" (fun () ->
        Dsim.Engine.run ~graph:env.graph ~assignment:(Deploy.assignment dep)
          ~caps:env.caps ~arrivals:env.arrivals
          ~config:{ Dsim.Engine.default_config with warmup = 0.; seed = env.seed }
          ~until:probe_seconds ())
  in
  let events = Workload_sig.events_total () - events_before in
  Harness.check "drift-replan engine run stays below capacity"
    (Dsim.Sim_metrics.max_utilization m < 1.);
  let items = m.Dsim.Sim_metrics.items_processed in
  let latencies = m.Dsim.Sim_metrics.latencies in
  {
    Workload_sig.items;
    latencies;
    fingerprint =
      Printf.sprintf "arrivals=%d items=%d outputs=%d p50=%h p99=%h"
        m.Dsim.Sim_metrics.arrivals items m.Dsim.Sim_metrics.outputs
        (Obs.Samples.percentile latencies 50.)
        (Obs.Samples.percentile latencies 99.);
    counters =
      [
        ("dsim.items", float_of_int items);
        ( "dsim.events_per_item",
          float_of_int events /. float_of_int (max 1 items) );
        ("dsim.max_backlog", float_of_int m.Dsim.Sim_metrics.max_backlog);
      ];
  }

let check_engine _env _dep ~chunk:_ (run : Workload_sig.engine_run) =
  Harness.check "drift-replan engine processed work" (run.Workload_sig.items > 0);
  Harness.check "drift-replan engine produced sink outputs"
    (Obs.Samples.count run.Workload_sig.latencies > 0)
