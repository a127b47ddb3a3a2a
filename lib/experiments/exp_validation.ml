module Vec = Linalg.Vec
module Graph = Query.Graph
module Sop = Spe.Sop
module Tuple = Spe.Tuple
module Value = Spe.Value

let name = "EXPSPE simulator vs semantic engine"

(* A linear pipeline (filters + windowed aggregates + merge): the load
   of every operator is per-tuple, so the cost abstraction should track
   the real engine tightly. *)
let linear_network () =
  Spe.Network.create ~n_inputs:2
    ~ops:
      [
        ( Sop.filter ~name:"cleanA" (fun t ->
              Value.to_string (Tuple.find t "proto") <> "icmp"),
          [ Graph.Sys_input 0 ] );
        ( Sop.aggregate ~name:"volA" ~window:1. ~group_by:"src"
            [ ("bytes", Sop.Sum "bytes") ],
          [ Graph.Op_output 0 ] );
        ( Sop.filter ~name:"cleanB" (fun t ->
              Value.to_string (Tuple.find t "proto") <> "icmp"),
          [ Graph.Sys_input 1 ] );
        ( Sop.aggregate ~name:"volB" ~window:1. ~group_by:"src"
            [ ("bytes", Sop.Sum "bytes") ],
          [ Graph.Op_output 2 ] );
        ( Sop.union ~name:"report" ~arity:2 (),
          [ Graph.Op_output 1; Graph.Op_output 3 ] );
      ]
    ()

(* The same pipeline with a cross-feed join: windows emit synchronized
   bursts at boundary instants, and a quadratic operator downstream
   amplifies that correlation — the stress case for the independence
   assumptions of the cost abstraction. *)
let join_network () =
  Spe.Network.create ~n_inputs:2
    ~ops:
      [
        ( Sop.filter ~name:"cleanA" (fun t ->
              Value.to_string (Tuple.find t "proto") <> "icmp"),
          [ Graph.Sys_input 0 ] );
        ( Sop.aggregate ~name:"volA" ~window:1. ~group_by:"src"
            [ ("bytes", Sop.Sum "bytes") ],
          [ Graph.Op_output 0 ] );
        ( Sop.filter ~name:"cleanB" (fun t ->
              Value.to_string (Tuple.find t "proto") <> "icmp"),
          [ Graph.Sys_input 1 ] );
        ( Sop.aggregate ~name:"volB" ~window:1. ~group_by:"src"
            [ ("bytes", Sop.Sum "bytes") ],
          [ Graph.Op_output 2 ] );
        ( Sop.equi_join ~name:"correlate" ~window:2. ~left_key:"group"
            ~right_key:"group" (),
          [ Graph.Op_output 1; Graph.Op_output 3 ] );
      ]
    ()

type comparison = {
  label : string;
  sim_util : float array;
  engine_util : float array;
  sim_outputs : int;
  engine_outputs : int;
  gap : float;
}

let compare_network ~horizon ~rng ~label ~profile_rate ~test_rate network =
  let sample_trace = Workload.Trace.create ~dt:1. (Array.make 10 profile_rate) in
  let sample_inputs =
    [|
      Spe.Datagen.packets ~rng ~trace:sample_trace ~hosts:12 ();
      Spe.Datagen.packets ~rng ~trace:sample_trace ~hosts:12 ();
    |]
  in
  let profile = Spe.Profiler.profile network ~inputs:sample_inputs in
  let graph = profile.Spe.Profiler.graph in
  let problem =
    Rod.Problem.of_graph graph ~caps:(Rod.Problem.homogeneous_caps ~n:2 ~cap:1.)
  in
  let assignment = Rod.Rod_algorithm.place problem in
  let model = Query.Load_model.derive graph in
  (* Scale capacities so the predicted hottest node sits at 60% at the
     profiling rate (unit costs are fractions of a microsecond). *)
  let predicted =
    let vars =
      Query.Load_model.eval_vars model
        ~sys_rates:(Vec.of_list [ profile_rate; profile_rate ])
    in
    let ln = Rod.Plan.node_loads (Rod.Plan.make problem assignment) in
    Vec.max_elt (Vec.init 2 (fun i -> Vec.dot (Linalg.Mat.row ln i) vars))
  in
  let caps = Vec.create 2 (predicted /. 0.6) in
  let test_trace = Workload.Trace.create ~dt:horizon [| test_rate |] in
  let test_inputs =
    [|
      Spe.Datagen.packets ~rng ~trace:test_trace ~hosts:12 ();
      Spe.Datagen.packets ~rng ~trace:test_trace ~hosts:12 ();
    |]
  in
  let semantic =
    Spe.Dist_executor.run ~network ~assignment ~caps
      ~cost:(Spe.Dist_executor.cost_model_of_graph graph)
      ~inputs:test_inputs
      ~config:{ Spe.Dist_executor.default_config with warmup = 1. }
      ~until:horizon ()
  in
  let arrivals = Array.map (List.map Tuple.ts) test_inputs in
  let abstract =
    Dsim.Engine.run ~graph ~assignment ~caps ~arrivals
      ~config:{ Dsim.Engine.default_config with warmup = 1. }
      ~until:horizon ()
  in
  let au = abstract.Dsim.Sim_metrics.utilization in
  let su = semantic.Spe.Dist_executor.utilization in
  {
    label;
    sim_util = au;
    engine_util = su;
    sim_outputs = abstract.Dsim.Sim_metrics.outputs;
    engine_outputs = List.length semantic.Spe.Dist_executor.outputs;
    gap =
      100.
      *. Float.max
           (abs_float (au.(0) -. su.(0)))
           (abs_float (au.(1) -. su.(1)));
  }

let run ?(quick = false) fmt =
  Report.section fmt name;
  Report.note fmt
    "The same placed network under identical arrivals, executed by the\n\
     cost-abstraction simulator (Bernoulli selectivities) and by the\n\
     semantic engine (real tuples, profiled costs) — the paper validated\n\
     its simulator against Borealis the same way.  Linear pipelines\n\
     track tightly; two failure modes are quantified below: a windowed\n\
     aggregate's selectivity saturates (so it does not extrapolate to\n\
     other rates), and synchronized window emissions feeding a join\n\
     violate the model's independence assumption.";
  let horizon = if quick then 20. else 60. in
  let rng = Random.State.make [| 606 |] in
  let rows = ref [] in
  let add c =
    rows :=
      [
        c.label;
        Printf.sprintf "%s / %s" (Report.pct c.sim_util.(0))
          (Report.pct c.sim_util.(1));
        Printf.sprintf "%s / %s" (Report.pct c.engine_util.(0))
          (Report.pct c.engine_util.(1));
        string_of_int c.sim_outputs;
        string_of_int c.engine_outputs;
        Printf.sprintf "%.1f pts" c.gap;
      ]
      :: !rows
  in
  add
    (compare_network ~horizon ~rng ~label:"linear @ profiled rate"
       ~profile_rate:400. ~test_rate:400. (linear_network ()));
  add
    (compare_network ~horizon ~rng ~label:"linear, extrapolated 4x down"
       ~profile_rate:400. ~test_rate:100. (linear_network ()));
  add
    (compare_network ~horizon ~rng ~label:"with join @ profiled rate"
       ~profile_rate:400. ~test_rate:400. (join_network ()));
  Report.table fmt
    ~headers:
      [ "scenario"; "sim util n0/n1"; "engine util n0/n1"; "sim outputs";
        "engine outputs"; "max gap" ]
    ~rows:(List.rev !rows);
  Report.note fmt
    "Linear pipelines: utilizations agree to fractions of a point even\n\
     when extrapolated — per-tuple costs are exactly what the model\n\
     assumes.  The saturating selectivity of windowed aggregates shows\n\
     in the OUTPUT column when extrapolating (the model predicts 4x\n\
     fewer outputs; the engine still emits one per group per window) —\n\
     the non-constant-selectivity case Section 6.2's cut variables\n\
     model.  The join row adds burst-correlation error: window\n\
     boundaries emit all groups at one instant, so the join examines\n\
     more pairs (and emits more matches) than the w*r_l*r_r\n\
     independence estimate."
