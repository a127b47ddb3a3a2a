(** A discrete-event simulator of a distributed stream-processing
    engine — the substrate standing in for the Borealis prototype.

    The timing model (serial CPUs with FIFO queues, hop delay, faults,
    pause–drain–resume migration) is {!Kernel}'s, shared with the
    semantic [Spe.Dist_executor].  This engine supplies the cost-model
    operators (the paper's assumptions in §2.1):
    - processing a tuple whose operator cost is [w] CPU-seconds
      occupies its node for [w / capacity] wall-seconds;
    - linear operators emit output tuples according to their
      selectivity (Bernoulli draws, expectation = selectivity);
    - time-window joins keep real sliding windows of tuple timestamps:
      an arriving tuple is matched against the opposite side's tuples
      whose timestamps are within [window/2] (cost [cost_per_pair] per
      candidate pair, Bernoulli [sel] per output), so each candidate
      pair is examined exactly once and the pair rate is
      [window * r_u * r_v] — the load model of §6.2;
    - every tuple carries the timestamp of the source tuple that caused
      it; the latency of a sink output is completion time minus that
      origin — the "latency of individual results" the paper optimizes.

    Runs are deterministic given the config's [seed]. *)

type config = {
  net_delay : float; (* rodunits: sim-sec *)
      (** One-way network latency, seconds (default 1 ms). *)
  seed : int;  (** Selectivity/join randomness. *)
  warmup : float; (* rodunits: sim-sec *)
      (** Statistics ignore events before this time. *)
  shed_above : int option;
      (** Load shedding: when set, a tuple arriving at a node whose
          queue already holds this many items is dropped (and counted),
          trading answer completeness for bounded latency — the standard
          overload alternative to placement that the paper's related
          work discusses.  [None] (default) = lossless queues. *)
  faults : Fault.schedule;
      (** Injected faults (default none), interpreted by {!Kernel}.  A
          schedule is pure data, so runs stay deterministic. *)
}

val default_config : config

type dynamic_config = {
  interval : float; (* rodunits: sim-sec *)
      (** Controller wake-up period, seconds. *)
  migration_delay : float; (* rodunits: sim-sec *)
      (** {!Kernel.timing}'s [handoff_delay]. *)
  drain_delay : float; (* rodunits: sim-sec *)
  state_delay : int -> float;
      (** As in {!Kernel.timing}; e.g. {!Statesize} in [rod.dynamic]. *)
  decide :
    time:float ->
    utilization:float array ->
    op_cpu:float array ->
    rates:float array ->
    assignment:int array ->
    (int * int) list;
      (** Called every [interval] with per-node utilization over the
          last interval, per-operator CPU seconds over the last
          interval, per-input-stream observed arrival rates (tuples/s
          over the last interval, also published as the
          [rod_sim_input_rate] gauges) and the current assignment
          (read-only copies); returns [(operator, destination)]
          migrations to start.  Operators already migrating are
          skipped. *)
}
(** Optional dynamic load distribution running {e inside} the
    simulation — the reactive scheme the paper argues cannot keep up
    with short-term bursts.  [decide] is the kernel's control hook;
    each migration is the kernel's pause–drain–resume
    ({!Kernel.migrate}). *)

val run :
  graph:Query.Graph.t ->
  assignment:int array ->
  caps:Linalg.Vec.t ->
  arrivals:float list array ->
  ?config:config ->
  ?dynamic:dynamic_config ->
  until:float ->
  unit ->
  Sim_metrics.t
(* rodunits: until:sim-sec -> _ *)
(** Simulate the placed graph fed by per-input-stream arrival timestamp
    lists (as produced by {!Workload.Generators}; an unsorted list is
    stably sorted), up to absolute time [until].  Arrivals are merged
    in {!Source_merge}'s order: by time, then stream index, and before
    any other event at the same time.  Work still queued, buffered or
    in service at [until] is reported as backlog. *)
