(** Measurement plumbing for the simulator: the per-run statistics
    record.  The sample buffer lives in [rod.obs] now ({!Obs.Samples});
    the alias keeps existing [Sim_metrics.Samples] callers working. *)

module Samples = Obs.Samples

type op_stat = {
  consumed : int array;  (** Tuples processed, per input arc. *)
  emitted : int array;  (** Output tuples attributed to each input arc. *)
  cpu : float array;  (** CPU seconds spent, per input arc. *)
  mutable pairs : int;  (** Join candidate pairs examined (joins only). *)
}
(** Per-operator execution statistics — the raw material for measuring
    costs and selectivities from trial runs (§7.1). *)

type t = {
  duration : float; (* rodunits: sim-sec *)
      (** Measured interval (after warm-up). *)
  utilization : float array;  (** Per node: busy time / duration. *)
  latencies : Samples.t;  (** End-to-end latency of sink outputs. *)
  arrivals : int;  (** Source tuples injected (after warm-up). *)
  items_processed : int;  (** Work items completed (after warm-up). *)
  outputs : int;  (** Tuples emitted by sink operators. *)
  backlog : int;
      (** Work items still queued, buffered or in service at the end. *)
  max_backlog : int;
      (** Peak of the [backlog] quantity over the run (queued, buffered
          and in-service items, sampled at each delivery), so never
          below the final [backlog]. *)
  op_stats : op_stat array;  (** Index-aligned with the graph's operators. *)
  migrations : int;  (** Operator migrations started (dynamic runs). *)
  dropped : int;  (** Tuples shed at full queues (when shedding is on). *)
  lost : int;
      (** Work items destroyed by injected faults: queued or in service
          on a node when it crashed, or routed to a dead node (a broken
          recovery).  Zero on fault-free runs. *)
}

val make_op_stat : arity:int -> op_stat

val max_utilization : t -> float
(* rodunits: 1 *)

val mean_latency : t -> float
(* rodunits: sim-sec *)

val p95_latency : t -> float
(* rodunits: sim-sec *)

val pp : Format.formatter -> t -> unit
