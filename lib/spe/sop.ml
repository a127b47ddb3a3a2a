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
      slide : float;
      group_by : string option;
      compute : (string * aggregate_fn) list;
    }
  | Equi_join of {
      name : string;
      window : float;
      left_key : string;
      right_key : string;
    }
  | Distinct of {
      name : string;
      window : float;
      key : string;
    }

let name = function
  | Filter { name; _ }
  | Map { name; _ }
  | Project { name; _ }
  | Union { name; _ }
  | Aggregate { name; _ }
  | Equi_join { name; _ }
  | Distinct { name; _ } -> name

let kind = function
  | Filter _ -> "filter"
  | Map _ -> "map"
  | Project _ -> "project"
  | Union _ -> "union"
  | Aggregate _ -> "aggregate"
  | Equi_join _ -> "join"
  | Distinct _ -> "distinct"

let arity = function
  | Filter _ | Map _ | Project _ | Aggregate _ | Distinct _ -> 1
  | Union { arity; _ } -> arity
  | Equi_join _ -> 2

let filter ?(name = "filter") predicate = Filter { name; predicate }

let map ?(name = "map") transform = Map { name; transform }

let project ?(name = "project") keep = Project { name; keep }

let union ?(name = "union") ~arity () =
  if arity < 1 then invalid_arg "Sop.union: arity < 1";
  Union { name; arity }

let aggregate ?(name = "aggregate") ~window ?slide ?group_by compute =
  if window <= 0. then invalid_arg "Sop.aggregate: window <= 0";
  let slide = Option.value slide ~default:window in
  if slide <= 0. then invalid_arg "Sop.aggregate: slide <= 0";
  if compute = [] then invalid_arg "Sop.aggregate: nothing to compute";
  Aggregate { name; window; slide; group_by; compute }

let distinct ?(name = "distinct") ~window ~key () =
  if window <= 0. then invalid_arg "Sop.distinct: window <= 0";
  Distinct { name; window; key }

let equi_join ?(name = "join") ~window ~left_key ~right_key () =
  if window <= 0. then invalid_arg "Sop.equi_join: window <= 0";
  Equi_join { name; window; left_key; right_key }
