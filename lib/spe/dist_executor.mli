(** Distributed semantic execution: the {!Executor}'s real operator
    semantics on {!Dsim.Kernel}'s timing model (serial CPUs per node,
    FIFO queues, network hop delay, faults, pause–drain–resume
    migration), the same kernel {!Dsim.Engine} runs on.

    Where {!Dsim.Engine} abstracts operators into costs and Bernoulli
    selectivity draws, this engine pushes {e actual tuples} through
    {!Sop} operators placed on nodes, charging each tuple the per-tuple
    CPU cost of its operator (costs come from a {!Profiler} run or any
    {!Query.Graph} cost model).  Selectivity and join fan-out emerge
    from the data itself.

    Its purpose is validation: the paper checked its simulator against
    Borealis; we check {!Dsim.Engine} against this engine (experiment
    EXPSPE).  Results carry both the computed output tuples and the
    performance metrics. *)

type config = {
  net_delay : float;  (** One-way hop latency, seconds (default 1 ms). *)
  warmup : float;  (** Metrics ignore events before this time. *)
  faults : Dsim.Fault.schedule;
      (** Injected faults (default none), interpreted by
          {!Dsim.Kernel} as in {!Dsim.Engine}. *)
}

val default_config : config

(** The kernel's migration delays. *)
type migration_timing = Dsim.Kernel.timing = {
  drain_delay : float;
  handoff_delay : float;
  state_delay : int -> float;
}

val default_timing : migration_timing
(** 50 ms drain, 300 ms handoff, zero per-operator state transfer. *)

type result = {
  outputs : (int * Tuple.t) list;  (** Sink outputs, in emission order. *)
  utilization : float array;  (** Per node, within the measured window. *)
  latencies : Obs.Samples.t;
      (** Sink-output latency: completion time minus the event-time of
          the source tuple that triggered it. *)
  arrivals : int;
  backlog : int;
      (** Work items queued, buffered by a migration or in service at
          [until]: {!Dsim.Kernel.backlog}, as in {!Dsim.Engine}. *)
  lost : int;
      (** Work items destroyed by injected faults (crashed with their
          node or routed to a dead one). *)
  migrations : int;  (** Migrations started (including aborted ones). *)
  op_stats : Executor.op_run_stat array;
      (** Per-operator consumed/emitted/pair counts over the whole run —
          the raw material for the chaos oracles' tuple-conservation
          checks. *)
}

val cost_model_of_graph :
  Query.Graph.t -> int -> int -> float
(** [cost_model_of_graph graph op input_idx] reads per-tuple costs out
    of a cost-model graph (for joins, the per-pair cost). *)

val run :
  network:Network.t ->
  assignment:int array ->
  caps:Linalg.Vec.t ->
  cost:(int -> int -> float) ->
  inputs:Tuple.t list array ->
  ?config:config ->
  ?migrations:(float * (int * int) list) list ->
  ?timing:migration_timing ->
  until:float ->
  unit ->
  result
(** Tuples arrive at their own timestamps, merged across streams in
    {!Dsim.Source_merge}'s order: by timestamp (an unsorted stream is
    stably sorted), then stream index, and before any other event at
    the same time.  [cost op input_idx] is CPU seconds per tuple (per candidate pair
    for joins).  Open aggregate windows at [until] are counted as
    backlog state, not flushed.

    [migrations] are scripted: at each [(time, moves)] the listed
    [(op, dest)] migrations start ({!Dsim.Kernel.migrate}).  Tuples
    buffered across a migration are processed exactly once; semantic
    operator state is process-global, so a handoff never replays or
    drops window contents. *)
