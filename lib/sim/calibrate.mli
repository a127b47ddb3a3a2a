(** Operator cost/selectivity measurement — the paper's methodology for
    obtaining a load model from a running system (§7.1):

    "To measure the operator costs and selectivities in the prototype
    implementation, we randomly distribute the operators and run the
    system for a sufficiently long time to gather stable statistics."

    {!measure} runs the graph in the simulator under a random balanced
    placement and returns per-operator estimates; {!estimated_graph}
    rebuilds a graph whose operator parameters are the estimates, ready
    for load-model derivation and placement.  Parameters of operators
    that processed no tuples during the trial keep their configured
    values.

    [Spe.Profiler] builds the same estimates from a semantic run: it
    counts selectivities, charges a fixed unit cost per operator kind,
    and passes both through {!estimated_graph}. *)

type estimate = {
  costs : float array;  (** Estimated CPU seconds per tuple, per input. *)
  selectivities : float array;  (** Estimated outputs per input tuple. *)
  cost_per_pair : float option;  (** Joins only. *)
  sel_per_pair : float option;  (** Joins only. *)
  support : int;  (** Tuples observed (candidate pairs for joins). *)
}

val of_stats : Query.Graph.t -> Sim_metrics.t -> estimate array
(** Turn a simulation's per-operator statistics into estimates. *)

val measure :
  ?seed:int ->
  ?duration:float ->
  ?rng:Random.State.t ->
  graph:Query.Graph.t ->
  n_nodes:int ->
  rates:Linalg.Vec.t ->
  unit ->
  estimate array
(** Trial run: random balanced placement on [n_nodes] unit nodes,
    constant [rates] for [duration] seconds (default 30). *)

val estimated_graph : Query.Graph.t -> estimate array -> Query.Graph.t
(** A structurally identical graph whose operator costs/selectivities
    are replaced by the estimates (windows and selectivity bounds are
    configuration, not measurements, and are kept). *)

val max_relative_error : Query.Graph.t -> estimate array -> float
(** Largest relative error of any estimated parameter with positive
    support against the graph's true parameters — for tests and
    reporting. *)
