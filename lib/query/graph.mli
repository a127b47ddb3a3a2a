(** Acyclic data-flow query graphs.

    A graph has [d] system input streams and [m] operators.  Operator
    inputs are {!source}s: either a system input stream or another
    operator's output.  Each operator produces one output stream, which
    may feed any number of downstream operators (or an application sink,
    if it feeds none). *)

type source =
  | Sys_input of int  (** 0-based system input stream index. *)
  | Op_output of int  (** 0-based operator index. *)

type t = private {
  n_inputs : int;
  ops : Op.t array;
  inputs_of : source array array;
      (** [inputs_of.(j)] are operator [j]'s input arcs, in the order the
          operator's per-input costs/selectivities refer to them. *)
  input_xfer_cost : float array;
      (** CPU seconds per tuple to receive one tuple of each system input
          stream over the network (for clustering / simulation); zeros
          when communication is free. *)
}

val create :
  ?input_xfer_cost:float array ->
  n_inputs:int ->
  ops:(Op.t * source list) list ->
  unit ->
  t
(** Builds and validates a graph.  Checks: positive [n_inputs], source
    indices in range, arity of each operator matching its input list,
    and acyclicity.  Operators are indexed in list order.
    @raise Invalid_argument on any violation. *)

val n_ops : t -> int

val n_inputs : t -> int

val op : t -> int -> Op.t

val sources : t -> int -> source list

val consumers : t -> source -> int list
(** Operators reading from the given stream, ascending. *)

val readers_of :
  n_inputs:int ->
  source array array ->
  (int * int) list array * (int * int) list array
(** [readers_of ~n_inputs inputs_of] lists, in one pass, the
    [(operator, input index)] pairs reading every stream of a wiring
    whose operator [j] reads [inputs_of.(j)]: one array indexed by input
    stream, one by operator, each list in ascending
    [(operator, input index)] order.  Engines push events in this order,
    so it fixes their tie-breaks. *)

val sinks : t -> int list
(** Operators whose output feeds no other operator. *)

val topo_order : t -> int list
(** Operator indices in a topological order (inputs before consumers). *)

val has_nonlinear : t -> bool

val arcs : t -> (source * int) list
(** Every (producer stream, consumer operator) arc in the graph. *)

val arc_xfer_cost : t -> source -> float
(** Per-tuple network transfer cost of a stream (input stream receive
    cost, or the producing operator's [out_xfer_cost]). *)

val restrict_names : t -> string array
(** Operator names, index-aligned. *)

val pp : Format.formatter -> t -> unit
