(** A push-based interpreter for semantic operator networks.

    Input tuples are merged into one event-time-ordered stream and
    pushed depth-first through the network at their timestamps.
    Tumbling windows flush when a tuple of a later window arrives (and
    once more at end of stream); joins keep real sliding buffers with
    the [|ts_l - ts_r| <= window/2] matching convention shared with the
    load model and the simulator.

    The executor is single-process and logical (no queueing delays) —
    its job is {e semantics and counting}: exact per-operator
    input/output counts (selectivities) and join candidate-pair counts,
    which the {!Profiler} turns into a cost model for placement. *)

type op_run_stat = {
  consumed : int array;  (** Tuples consumed, per input arc. *)
  mutable emitted : int;  (** Tuples produced. *)
  mutable pairs : int;  (** Joins: opposite-buffer tuples examined. *)
}

type result = {
  outputs : (int * Tuple.t) list;
      (** (sink operator, tuple), in emission order. *)
  stats : op_run_stat array;
  recorded : (int * Tuple.t) list array option;
      (** With [~record:true]: each operator's input log
          [(input index, tuple)] in arrival order, for oracles that
          check per-tuple routing. *)
}

val run : ?record:bool -> Network.t -> inputs:Tuple.t list array -> result
(** [inputs] holds one timestamp-nondecreasing tuple list per system
    input stream.  @raise Invalid_argument on arity mismatch or when a
    join key or aggregate field is missing from a tuple. *)

(** {2 Replay hooks}

    Single-operator execution for engines that schedule operators
    themselves ({!Dist_executor}): fresh state and counters plus the
    raw processing step, without a network around them.
    [replay_process] maintains only [pairs]; [consumed] and [emitted]
    are the caller's to count. *)

type state

val replay_state : Sop.t -> state

val replay_stat : Sop.t -> op_run_stat

val replay_process :
  Sop.t -> state -> op_run_stat -> int -> Tuple.t -> Tuple.t list
