(** Semantic stream operators — the executable counterparts of the cost
    model's operator kinds.  Where {!Query.Op} describes {e how much} an
    operator costs, an {!Sop.t} describes {e what it computes}; the
    {!Profiler} bridges the two by counting a running network. *)

type aggregate_fn =
  | Count
  | Sum of string
  | Avg of string
  | Max of string
  | Min of string

type t =
  | Filter of {
      name : string;
      predicate : Tuple.t -> bool;
    }
  | Map of {
      name : string;
      transform : Tuple.t -> Tuple.t;
    }
  | Project of {
      name : string;
      keep : string list;
    }
  | Union of {
      name : string;
      arity : int;
    }
  | Aggregate of {
      name : string;
      window : float;
          (** Event-time window length, seconds; a window ending at
              boundary [b] covers tuples with [b - window <= ts < b]. *)
      slide : float;
          (** Emission period: boundaries sit at multiples of [slide].
              [slide = window] is a tumbling window; [slide < window]
              overlapping sliding windows; [slide > window] sampled
              (gapped) windows. *)
      group_by : string option;
          (** Optional grouping field; [None] = one group. *)
      compute : (string * aggregate_fn) list;
          (** Output field name, aggregate.  Each boundary emits one
              tuple per group seen in its window, timestamped at the
              boundary, carrying the group key (field ["group"]) and
              the computed aggregates. *)
    }
  | Equi_join of {
      name : string;
      window : float;
          (** Tuples join when their timestamps differ by at most
              [window / 2] — the same convention as the simulator and
              the §6.2 load model, making the candidate-pair rate
              [window * r_left * r_right]. *)
      left_key : string;
      right_key : string;
    }
  | Distinct of {
      name : string;
      window : float;
          (** Suppression horizon: after a tuple with some key value is
              emitted, further tuples with the same key are dropped for
              [window] seconds (alert de-duplication). *)
      key : string;
    }

val name : t -> string

val kind : t -> string
(** The operator's kind: ["filter"], ["map"], ["project"], ["union"],
    ["aggregate"], ["join"] or ["distinct"]. *)

val arity : t -> int

val filter : ?name:string -> (Tuple.t -> bool) -> t

val map : ?name:string -> (Tuple.t -> Tuple.t) -> t

val project : ?name:string -> string list -> t

val union : ?name:string -> arity:int -> unit -> t

val aggregate :
  ?name:string ->
  window:float ->
  ?slide:float ->
  ?group_by:string ->
  (string * aggregate_fn) list ->
  t
(** [slide] defaults to [window] (tumbling). *)

val equi_join :
  ?name:string -> window:float -> left_key:string -> right_key:string -> unit -> t

val distinct : ?name:string -> window:float -> key:string -> unit -> t
