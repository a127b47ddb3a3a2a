(** The one-stop deployment API: everything between "here is my query"
    and "here is which node runs what, and how much headroom you have".

    Three entry points, one result type:
    - {!of_cost_model} — you already have operator costs/selectivities
      (a {!Query.Graph});
    - {!of_network} — you have executable operators ({!Spe.Network});
      they are profiled on your sample data first;
    - {!of_query_file} — you have a query-language source file.

    The resulting deployment carries the resilient plan, its metrics,
    and helpers for capacity questions (expected utilizations, the
    feasibility boundary along a rate direction, a simulation probe). *)

type t = {
  graph : Query.Graph.t;  (** The cost model that was placed. *)
  problem : Rod.Problem.t;
  plan : Rod.Plan.t;
  ratio : float;  (** Feasible-set size vs the ideal (QMC estimate). *)
  network : Spe.Network.t option;
      (** The executable network, when deploying from one. *)
  profile : Spe.Profiler.profile_result option;
      (** Counted selectivities and unit costs, when profiling
          happened. *)
  analysis : Analysis.Plan_check.report;
      (** The static-analysis report for the deployed model.  Every
          entry point runs {!Analysis.Plan_check.check_graph} before
          placing and raises [Invalid_argument] on errors
          ({!of_query_file} returns them as [Error]); warnings are
          kept here for inspection. *)
}

val of_cost_model :
  ?polish:bool ->
  ?lower:Linalg.Vec.t ->
  ?place:(Rod.Problem.t -> int array) ->
  ?samples:int ->
  graph:Query.Graph.t ->
  caps:Linalg.Vec.t ->
  unit ->
  t
(** Place a cost-model graph with ROD ([polish] adds the local-search
    refinement; default false).  [place] swaps in another placer (a
    baseline, or a traced ROD run); the default is
    {!Rod.Rod_algorithm.place} with [lower], which also bounds the
    volume estimate either way.  Whatever the placer, the analysis gate
    runs first. *)

val of_network :
  ?polish:bool ->
  ?place:(Rod.Problem.t -> int array) ->
  ?samples:int ->
  network:Spe.Network.t ->
  sample:Spe.Tuple.t list array ->
  caps:Linalg.Vec.t ->
  unit ->
  t
(** Profile the executable network on [sample] tuples (one
    timestamp-ascending list per input stream) with {!Spe.Profiler},
    then place the counted cost model ([place] as in {!of_cost_model}).
    The same network and sample give the same deployment. *)

val of_query_file :
  ?polish:bool ->
  ?samples:int ->
  path:string ->
  sample:Spe.Tuple.t list array ->
  caps:Linalg.Vec.t ->
  unit ->
  (t, string) result
(** Compile a query-language file, then proceed as {!of_network}. *)

val assignment : t -> int array

val node_roster : t -> int -> string list
(** Operator names deployed on a node. *)

val expected_utilization : t -> rates:Linalg.Vec.t -> Linalg.Vec.t
(** Per-node utilization predicted at a system rate point (the true
    nonlinear loads are used when the model has introduced variables). *)

val headroom : t -> direction:Linalg.Vec.t -> float
(** Largest multiple of [direction] (a system-rate direction) the plan
    sustains. *)

val replan :
  ?pool:Parallel.Pool.t ->
  ?samples:int ->
  ?budget:int ->
  ?cost_of:(int -> float) ->
  t ->
  rates:Linalg.Vec.t ->
  t * Dynamic.Replanner.outcome
(** Budgeted online replanning at an observed {e system} rate point:
    the rates are mapped through the load model's introduced variables,
    {!Dynamic.Replanner.replan} proposes at most [budget] (default 3)
    migrations priced by [cost_of] (default
    {!Dynamic.Statesize.graph_cost} on the deployed graph), and — when
    the replan is accepted — the static analysis gate re-admits the
    model before the deployment is rebuilt around the new plan.  A
    rejected replan returns the deployment unchanged.  The outcome's
    margins/ratios say why. *)

val probe : ?duration:float -> t -> rates:Linalg.Vec.t -> Dsim.Probe.verdict
(** Confirm a rate point in the discrete-event simulator. *)

val save : t -> dir:string -> unit
(** Write [graph.rodgraph], [plan.rodplan] and [plan.dot] into an
    existing directory. *)

val describe : t -> string
(** Human-readable summary: per-node rosters, metrics, ratio. *)
