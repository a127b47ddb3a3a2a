(* rodlint: obs *)
(* rodproto: protocol — every Plan.make materialization here must be
   dominated by a Plan_check gate (rodproto's gated-mutation pass) *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat

let obs_deploys =
  Obs.counter ~help:"Deployments completed (analysis gate passed)"
    "rod_deploy_total"

let obs_ratio =
  Obs.gauge ~help:"Feasible-set ratio of the last deployment"
    "rod_deploy_feasible_ratio"

type t = {
  graph : Query.Graph.t;
  problem : Rod.Problem.t;
  plan : Rod.Plan.t;
  ratio : float;
  network : Spe.Network.t option;
  profile : Spe.Profiler.profile_result option;
  analysis : Analysis.Plan_check.report;
}

let finish ?(polish = false) ?lower ?place ?(samples = 8192) ~graph ~caps
    ~network ~profile () =
  Obs.with_span ~cat:"deploy" "deploy.finish" (fun () ->
      (* Static analysis gates every deployment: a plan with a statically
         infeasible operator (or malformed load model) is rejected before
         any placement work happens. *)
      let analysis =
        Obs.with_span ~cat:"deploy" "deploy.analyze" (fun () ->
            Analysis.Plan_check.check_graph graph ~caps)
      in
      Analysis.Plan_check.assert_ok ~what:"deployment" analysis;
      let problem = Rod.Problem.of_graph graph ~caps in
      let assignment =
        Obs.with_span ~cat:"deploy" "deploy.place" (fun () ->
            match place with
            | Some place -> place problem
            | None -> Rod.Rod_algorithm.place ?lower problem)
      in
      let assignment =
        if polish then
          Obs.with_span ~cat:"deploy" "deploy.polish" (fun () ->
              (Rod.Local_search.improve ~samples problem assignment)
                .Rod.Local_search.assignment)
        else assignment
      in
      let plan = Rod.Plan.make problem assignment in
      let est =
        Obs.with_span ~cat:"deploy" "deploy.volume" (fun () ->
            Rod.Plan.volume_qmc ~samples ?lower plan)
      in
      Obs.Counter.incr obs_deploys;
      Obs.Gauge.set obs_ratio est.Feasible.Volume.ratio;
      {
        graph;
        problem;
        plan;
        ratio = est.Feasible.Volume.ratio;
        network;
        profile;
        analysis;
      })

let of_cost_model ?polish ?lower ?place ?samples ~graph ~caps () =
  finish ?polish ?lower ?place ?samples ~graph ~caps ~network:None
    ~profile:None ()

let of_network ?polish ?place ?samples ~network ~sample ~caps () =
  let profile = Spe.Profiler.profile network ~inputs:sample in
  finish ?polish ?place ?samples ~graph:profile.Spe.Profiler.graph ~caps
    ~network:(Some network) ~profile:(Some profile) ()

let of_query_file ?polish ?samples ~path ~sample ~caps () =
  match Cql.Frontend.compile_file ~path with
  | Error e -> Error (Cql.Frontend.error_to_string e)
  | Ok compiled -> (
    match
      of_network ?polish ?samples ~network:compiled.Cql.Compile.network
        ~sample ~caps ()
    with
    | deployment -> Ok deployment
    | exception Invalid_argument message -> Error message)

let assignment t = Rod.Plan.assignment t.plan

let node_roster t node =
  List.map
    (fun j -> (Query.Graph.op t.graph j).Query.Op.name)
    (Rod.Plan.ops_on t.plan node)

let expected_utilization t ~rates =
  let model = Query.Load_model.derive t.graph in
  if Vec.dim rates <> Query.Load_model.d_system model then
    invalid_arg "Deploy.expected_utilization: system rate dimension";
  let vars = Query.Load_model.eval_vars model ~sys_rates:rates in
  let ln = Rod.Plan.node_loads t.plan in
  let caps = t.problem.Rod.Problem.caps in
  Vec.init (Mat.rows ln) (fun i -> Vec.dot (Mat.row ln i) vars /. caps.(i))

let headroom t ~direction =
  let model = Query.Load_model.derive t.graph in
  let d_sys = Query.Load_model.d_system model in
  if Vec.dim direction <> d_sys then
    invalid_arg "Deploy.headroom: system rate dimension";
  if Query.Graph.has_nonlinear t.graph then begin
    (* Nonlinear loads along the ray: bisect against the true model. *)
    let feasible scale =
      let u = expected_utilization t ~rates:(Vec.scale scale direction) in
      Vec.max_elt u <= 1. +. 1e-12
    in
    let rec grow hi n =
      if n = 0 || not (feasible hi) then hi else grow (2. *. hi) (n - 1)
    in
    let hi = grow 1. 60 in
    let rec bisect lo hi n =
      if n = 0 then lo
      else
        let mid = (lo +. hi) /. 2. in
        if feasible mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
    in
    if feasible hi then hi else bisect 0. hi 60
  end
  else
    Feasible.Volume.max_scale ~ln:(Rod.Plan.node_loads t.plan)
      ~caps:t.problem.Rod.Problem.caps ~direction

let replan ?pool ?samples ?(budget = 3) ?cost_of t ~rates =
  let model = Query.Load_model.derive t.graph in
  if Vec.dim rates <> Query.Load_model.d_system model then
    invalid_arg "Deploy.replan: system rate dimension";
  let vars = Query.Load_model.eval_vars model ~sys_rates:rates in
  let cost_of =
    match cost_of with
    | Some f -> f
    | None -> Dynamic.Statesize.graph_cost t.graph
  in
  Obs.with_span ~cat:"deploy" "deploy.replan" (fun () ->
      let outcome =
        Dynamic.Replanner.replan ?pool ?samples ~rates:vars ~budget ~cost_of
          t.problem
          ~assignment:(Rod.Plan.assignment t.plan)
      in
      if not outcome.Dynamic.Replanner.accepted then (t, outcome)
      else begin
        (* The same static gate that admits initial deployments admits
           replans: a model that no longer passes cannot be redeployed. *)
        let analysis =
          Obs.with_span ~cat:"deploy" "deploy.analyze" (fun () ->
              Analysis.Plan_check.check_graph t.graph
                ~caps:t.problem.Rod.Problem.caps)
        in
        Analysis.Plan_check.assert_ok ~what:"replanned deployment" analysis;
        let plan =
          Rod.Plan.make t.problem outcome.Dynamic.Replanner.assignment
        in
        let est = Rod.Plan.volume_qmc plan in
        Obs.Counter.incr obs_deploys;
        Obs.Gauge.set obs_ratio est.Feasible.Volume.ratio;
        ({ t with plan; ratio = est.Feasible.Volume.ratio; analysis }, outcome)
      end)

let probe ?duration t ~rates =
  Dsim.Probe.probe_point ?duration ~graph:t.graph ~assignment:(assignment t)
    ~caps:t.problem.Rod.Problem.caps ~rates ()

let save t ~dir =
  Query.Graph_io.save t.graph ~path:(Filename.concat dir "graph.rodgraph");
  Query.Graph_io.save_assignment (assignment t)
    ~path:(Filename.concat dir "plan.rodplan");
  Query.Graph_dot.save ~assignment:(assignment t) t.graph
    ~path:(Filename.concat dir "plan.dot")

let describe t =
  let buffer = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  out "deployment: %d operators over %d nodes, feasible-set ratio %.3f\n"
    (Rod.Problem.n_ops t.problem)
    (Rod.Problem.n_nodes t.problem)
    t.ratio;
  for node = 0 to Rod.Problem.n_nodes t.problem - 1 do
    out "  node %d: %s\n" node (String.concat ", " (node_roster t node))
  done;
  let s = Rod.Metrics.summary t.plan in
  out "  plane distance r/r* = %.3f, MMAD bound = %.3f\n"
    s.Rod.Metrics.plane_distance_ratio s.Rod.Metrics.mmad_volume_bound;
  Buffer.contents buffer
