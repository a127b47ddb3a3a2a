(** The event kernel under both executors, {!Engine} (cost-model
    operators) and [Spe.Dist_executor] (real tuple semantics): one
    timing model, the machine the paper's simulator and Borealis share
    (§7).

    - Run-time events wait in an {!Event_queue}; source arrivals wait
      in a {!Source_merge} and go first on a tie.
    - Each node is a serial CPU with a FIFO queue: an item of [cpu]
      CPU-seconds occupies it for [cpu / (capacity *
      Fault.capacity_factor)] seconds, sampled at service start.
    - A hop between nodes takes [net_delay] plus the
      {!Fault.extra_delay} jitter at emission; it never queues.
    - A crash loses the node's queued work at once and its in-service
      item when that service ends, then switches to the recovery
      assignment; work later routed to a dead node is lost too.
    - Migrations are pause–drain–resume ({!migrate}).

    An executor supplies a {!payload}: how an item is served, what it
    emits, and a control hook that starts migrations.  Counts cover
    the measured window [[warmup, until]]. *)

type 'd item = {
  op : int;
  input_idx : int;
  origin : float;
      (** Event time of the source arrival behind the item; a sink
          output's latency is its completion time minus this. *)
  data : 'd;  (** What the executor carries (a tuple, say). *)
}

type 'd t

type 'd payload = {
  serve : 'd t -> int -> float -> 'd item -> float;
      (** [serve k node now item]: service starts; decide the item's
          work and return its CPU seconds. *)
  complete : 'd t -> int -> float -> 'd item -> unit;
      (** [complete k node now item]: that service ended on a live
          node; account for it and {!emit} its outputs. *)
  control : 'd t -> float -> int -> unit;
      (** [control k now tag]: a wake-up {!at_control} scheduled. *)
}

type timing = {
  drain_delay : float;
      (** From the pause to the handoff: the old node keeps ownership
          while in-flight tuples settle into the operator's buffer. *)
  handoff_delay : float;
      (** Base state transfer after the handoff (the paper's "few
          hundred milliseconds"). *)
  state_delay : int -> float;
      (** Per-operator seconds added to [handoff_delay], at least 0 —
          e.g. a state-size model, so a windowed join pauses longer
          than a stateless filter. *)
}

val no_migration : timing

val create :
  name:string ->
  cat:string ->
  caps:Linalg.Vec.t ->
  assignment:int array ->
  readers:(int * int) list array * (int * int) list array ->
  sources:'d Source_merge.t ->
  net_delay:float ->
  warmup:float ->
  until:float ->
  faults:Fault.schedule ->
  shed_above:int option ->
  timing:timing ->
  op_service:Obs.Histogram.t array ->
  'd payload ->
  'd t
(** A kernel over a copy of [assignment], nothing scheduled.  [readers]
    is {!Query.Graph.readers_of}'s pair.  [shed_above = Some l] drops
    an item reaching a queue of [l].  [op_service.(op)], unless empty,
    records service seconds.  Migration spans are [cat ^ ".migrate"].
    @raise Invalid_argument, prefixed by [name], on a bad assignment,
    [until <= warmup] or a bad fault schedule. *)

val at_control : 'd t -> float -> int -> unit
(** [at_control k time tag].  Events at one time run in the order they
    were scheduled, so an executor keeps its tie order by the order of
    its [at_control] and {!arm_faults} calls. *)

val arm_faults : 'd t -> unit
(** Schedule the fault schedule's crashes up to [until]. *)

val run : 'd t -> unit

val emit : 'd t -> float -> 'd item -> 'd -> unit
(** [emit k now item data]: one output of [item] to each reader of its
    operator, in reader order; nothing for a sink. *)

val is_sink : 'd t -> int -> bool

val migrate : 'd t -> float -> int -> int -> unit
(** [migrate k now op dest]: pause [op] (its queued work moves to its
    buffer, new input buffers); after [drain_delay] the handoff gives
    [op] to [dest] unless [dest] died (an abort); after the transfer
    the resume flushes the buffer to [op]'s node.  Ignored while [op]
    migrates, or when [dest] is its node or out of range. *)

val measured : 'd t -> float -> bool
val assignment : 'd t -> int array  (** A copy. *)

val busy_total : 'd t -> int -> float
(** A node's busy seconds since the start, warmup included. *)

val utilization : 'd t -> float array
val queue_length : 'd t -> int -> int
val arrivals : 'd t -> int

val backlog : 'd t -> int
(** Items queued, buffered by a migration or in service. *)

val max_backlog : 'd t -> int
(** Peak {!backlog}, sampled at each delivery. *)

val lost : 'd t -> int
(** Items lost to crashes. *)

val dropped : 'd t -> int
(** Items shed by [shed_above]. *)

val migrations : 'd t -> int
(** Migrations started, aborted ones included. *)

val events : 'd t -> int
(** Events run: source deliveries (one per reader) and heap events. *)

val queue_depth : 'd t -> int
(** Events not run: the heap's plus the source deliveries to come. *)
