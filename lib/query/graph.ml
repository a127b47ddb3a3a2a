type source =
  | Sys_input of int
  | Op_output of int

type t = {
  n_inputs : int;
  ops : Op.t array;
  inputs_of : source array array;
  input_xfer_cost : float array;
}

let n_ops g = Array.length g.ops

let n_inputs g = g.n_inputs

let op g j = g.ops.(j)

let sources g j = Array.to_list g.inputs_of.(j)

(* Topological sort by DFS; also serves as the acyclicity check. *)
let topo_order_exn ops inputs_of =
  let m = Array.length ops in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let state = Array.make m 0 in
  let order = ref [] in
  let rec visit j =
    match state.(j) with
    | 1 -> invalid_arg "Graph: cycle detected"
    | 2 -> ()
    | _ ->
      state.(j) <- 1;
      Array.iter
        (function Op_output j' -> visit j' | Sys_input _ -> ())
        inputs_of.(j);
      state.(j) <- 2;
      order := j :: !order
  in
  for j = 0 to m - 1 do
    visit j
  done;
  List.rev !order

let create ?input_xfer_cost ~n_inputs ~ops () =
  if n_inputs < 1 then invalid_arg "Graph.create: n_inputs < 1";
  let m = List.length ops in
  let op_array = Array.of_list (List.map fst ops) in
  let inputs_of =
    Array.of_list (List.map (fun (_, srcs) -> Array.of_list srcs) ops)
  in
  let input_xfer_cost =
    match input_xfer_cost with
    | None -> Array.make n_inputs 0.
    | Some xs ->
      if Array.length xs <> n_inputs then
        invalid_arg "Graph.create: input_xfer_cost length <> n_inputs";
      Array.iter
        (fun x -> if x < 0. then invalid_arg "Graph.create: negative xfer cost")
        xs;
      Array.copy xs
  in
  Array.iteri
    (fun j op ->
      let srcs = inputs_of.(j) in
      if Array.length srcs <> Op.arity op then
        invalid_arg
          (Printf.sprintf "Graph.create: op %d (%s) expects %d inputs, got %d" j
             op.Op.name (Op.arity op) (Array.length srcs));
      Array.iter
        (function
          | Sys_input k ->
            if k < 0 || k >= n_inputs then
              invalid_arg
                (Printf.sprintf "Graph.create: op %d reads bad input stream %d" j
                   k)
          | Op_output j' ->
            if j' < 0 || j' >= m then
              invalid_arg
                (Printf.sprintf "Graph.create: op %d reads bad op output %d" j j'))
        srcs)
    op_array;
  ignore (topo_order_exn op_array inputs_of);
  { n_inputs; ops = op_array; inputs_of; input_xfer_cost }

let consumers g src =
  let acc = ref [] in
  for j = n_ops g - 1 downto 0 do
    if Array.exists (fun s -> s = src) g.inputs_of.(j) then acc := j :: !acc
  done;
  !acc

let readers_of ~n_inputs inputs_of =
  let of_input = Array.make n_inputs [] in
  let of_op = Array.make (Array.length inputs_of) [] in
  for j = Array.length inputs_of - 1 downto 0 do
    for idx = Array.length inputs_of.(j) - 1 downto 0 do
      match inputs_of.(j).(idx) with
      | Sys_input k -> of_input.(k) <- (j, idx) :: of_input.(k)
      | Op_output i -> of_op.(i) <- (j, idx) :: of_op.(i)
    done
  done;
  (of_input, of_op)

let sinks g =
  let feeds = Array.make (n_ops g) false in
  Array.iter
    (Array.iter (function Op_output j -> feeds.(j) <- true | Sys_input _ -> ()))
    g.inputs_of;
  let acc = ref [] in
  for j = n_ops g - 1 downto 0 do
    if not feeds.(j) then acc := j :: !acc
  done;
  !acc

let topo_order g = topo_order_exn g.ops g.inputs_of

let has_nonlinear g = Array.exists Op.is_nonlinear g.ops

let arcs g =
  let acc = ref [] in
  for j = n_ops g - 1 downto 0 do
    Array.iter (fun src -> acc := (src, j) :: !acc) g.inputs_of.(j)
  done;
  List.rev (List.rev !acc)

let arc_xfer_cost g = function
  | Sys_input k -> g.input_xfer_cost.(k)
  | Op_output j -> (op g j).Op.out_xfer_cost

let restrict_names g = Array.map (fun o -> o.Op.name) g.ops

let pp_source fmt = function
  | Sys_input k -> Format.fprintf fmt "I%d" k
  | Op_output j -> Format.fprintf fmt "o%d" j

let pp fmt g =
  Format.fprintf fmt "@[<v>graph: %d inputs, %d operators@," g.n_inputs
    (n_ops g);
  Array.iteri
    (fun j o ->
      Format.fprintf fmt "  o%d <- [%a] : %a@," j
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
           pp_source)
        (sources g j) Op.pp o)
    g.ops;
  Format.fprintf fmt "@]"
