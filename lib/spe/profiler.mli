(** From a running network to a cost model — the §7.1 methodology on a
    {e real} engine rather than the simulator: execute the network on
    sample data, measure each operator's selectivity from exact
    input/output counts and its per-tuple CPU cost by replaying its
    recorded input log in a timing loop, and emit the {!Query.Graph}
    that ROD plans on.

    Costs are wall-clock per tuple on the current machine, so absolute
    values vary between hosts; placement only depends on their
    {e ratios}, which are stable. *)

type op_profile = {
  cost : float;
      (** Measured CPU seconds per input tuple (per candidate pair for
          joins). *)
  selectivity : float;
      (** Output tuples per input tuple (per candidate pair for joins). *)
  consumed : int;  (** Tuples observed during the sample run. *)
  emitted : int;
  pairs : int;  (** Joins only: candidate pairs examined. *)
}

type profile_result = {
  graph : Query.Graph.t;
      (** Cost-model graph with measured parameters (operators that saw
          no tuples keep placeholder values). *)
  run : Executor.result;  (** The sample run itself (outputs, counts). *)
  per_op : op_profile array;
}

val profile :
  ?replays:int -> Network.t -> inputs:Tuple.t list array -> profile_result
(** [replays] (default 20) controls how many times each operator's
    recorded input is re-executed for timing; more replays, steadier
    costs. *)

val wall_clock : Obs.Clock.t
(** Real elapsed time as an observability clock.  [Obs.set_clock
    wall_clock] trades deterministic telemetry for true durations; the
    underlying [Unix.gettimeofday] lives here because this module owns
    the repo's sanctioned wall-clock reads (rodcheck.allow:
    determinism/wallclock). *)
