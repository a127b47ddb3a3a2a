(** Wiring of semantic operators into an acyclic network, mirroring
    {!Query.Graph}'s structure (and reusing its [source] type): operator
    [j]'s inputs are system input streams or other operators' outputs;
    operators with no consumers are sinks delivering to applications. *)

type t = private {
  n_inputs : int;
  ops : Sop.t array;
  inputs_of : Query.Graph.source array array;
}

val create :
  n_inputs:int -> ops:(Sop.t * Query.Graph.source list) list -> unit -> t
(** Validates arity, reference ranges and acyclicity (by building a
    skeleton {!Query.Graph}). *)

val n_ops : t -> int

val n_inputs : t -> int

val op : t -> int -> Sop.t

val sources : t -> int -> Query.Graph.source list

val readers : t -> (int * int) list array * (int * int) list array
(** {!Query.Graph.readers_of} of the network's wiring. *)

val topo_order : t -> int list

val skeleton : ?costs:(int -> float) -> t -> Query.Graph.t
(** A cost-model graph with the same wiring: each semantic operator
    becomes a placeholder {!Query.Op} of cost [costs j] (default 1e-4)
    and neutral selectivity; joins keep their windows.  Used for
    validation and as the starting point before profiling. *)
