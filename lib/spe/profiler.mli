(** From a running network to a cost model — the §7.1 methodology on a
    {e real} engine rather than the simulator: execute the network once
    on sample data, count each operator's consumed tuples, candidate
    pairs and outputs, and emit the {!Query.Graph} that ROD plans on.

    Load is a count, not a timing.  An operator's cost is its kind's
    fixed {!unit_cost} per consumed tuple (per candidate pair for a
    join); its selectivity is emitted over consumed tuples (over pairs
    for a join).  The same network and sample always give the same
    graph. *)

type profile_result = {
  graph : Query.Graph.t;
      (** {!Network.skeleton} with unit costs, updated by [estimates]
          through {!Dsim.Calibrate.estimated_graph}. *)
  run : Executor.result;  (** The sample run itself (outputs, counts). *)
  estimates : Dsim.Calibrate.estimate array;
      (** One per operator.  An operator that saw no tuples (a join: no
          candidate pairs) keeps its unit cost and selectivity 1. *)
}

val unit_cost : Sop.t -> float
(* rodunits: cpu-sec *)
(** CPU seconds charged per unit of counted work of the operator's
    {!Sop.kind}: one consumed tuple, or one candidate pair for a join.
    A fixed table, calibrated once against timed replays. *)

val profile : Network.t -> inputs:Tuple.t list array -> profile_result
