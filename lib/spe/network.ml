module Graph = Query.Graph

type t = {
  n_inputs : int;
  ops : Sop.t array;
  inputs_of : Graph.source array array;
}

let skeleton_op ?(cost = 1e-4) sop =
  match sop with
  | Sop.Filter _ | Sop.Map _ | Sop.Project _ ->
    Query.Op.filter ~name:(Sop.name sop) ~cost ~sel:1. ()
  | Sop.Union { arity; _ } ->
    Query.Op.union ~name:(Sop.name sop) ~cost ~n_inputs:arity ()
  | Sop.Aggregate _ ->
    Query.Op.aggregate ~name:(Sop.name sop) ~cost ~sel:1. ()
  | Sop.Equi_join { window; _ } ->
    Query.Op.join ~name:(Sop.name sop) ~window ~cost_per_pair:cost ~sel:1. ()
  | Sop.Distinct _ -> Query.Op.filter ~name:(Sop.name sop) ~cost ~sel:1. ()

let skeleton ?costs t =
  let cost j = match costs with Some f -> f j | None -> 1e-4 in
  Graph.create ~n_inputs:t.n_inputs
    ~ops:
      (List.init (Array.length t.ops) (fun j ->
           ( skeleton_op ~cost:(cost j) t.ops.(j),
             Array.to_list t.inputs_of.(j) )))
    ()

let create ~n_inputs ~ops () =
  let t =
    {
      n_inputs;
      ops = Array.of_list (List.map fst ops);
      inputs_of =
        Array.of_list (List.map (fun (_, srcs) -> Array.of_list srcs) ops);
    }
  in
  Array.iteri
    (fun j sop ->
      if Array.length t.inputs_of.(j) <> Sop.arity sop then
        invalid_arg
          (Printf.sprintf "Network.create: op %d (%s) expects %d inputs, got %d"
             j (Sop.name sop) (Sop.arity sop)
             (Array.length t.inputs_of.(j))))
    t.ops;
  (* Range and acyclicity checks via the skeleton graph. *)
  ignore (skeleton t);
  t

let n_ops t = Array.length t.ops

let n_inputs t = t.n_inputs

let op t j = t.ops.(j)

let sources t j = Array.to_list t.inputs_of.(j)

let readers t = Graph.readers_of ~n_inputs:t.n_inputs t.inputs_of

let topo_order t = Graph.topo_order (skeleton t)
