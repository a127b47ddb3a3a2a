(* rodlint: hot *)
(* rodlint: deterministic *)

module Vec = Linalg.Vec

let of_cube u =
  let d = Array.length u in
  if d = 0 then invalid_arg "Simplex.of_cube: empty point";
  let sorted = Array.copy u in
  Array.sort Float.compare sorted;
  Array.init d (fun k -> if k = 0 then sorted.(0) else sorted.(k) -. sorted.(k - 1))

let volume d =
  if d < 0 then invalid_arg "Simplex.volume: negative dimension";
  let rec fact acc k = if k <= 1 then acc else fact (acc *. float_of_int k) (k - 1) in
  1. /. fact 1. d

let check_l l =
  if Vec.dim l = 0 then invalid_arg "Simplex: empty coefficient vector";
  if Vec.exists (fun x -> x <= 0.) l then
    invalid_arg "Simplex: load coefficients must be strictly positive"

let budget ~l ~c_total ~lower =
  match lower with
  | None -> c_total
  | Some b ->
    if Vec.dim b <> Vec.dim l then
      invalid_arg "Simplex: lower bound dimension mismatch";
    if Vec.exists (fun x -> x < 0.) b then
      invalid_arg "Simplex: negative lower bound";
    c_total -. Vec.dot l b

let ideal_volume ~l ~c_total ?lower () =
  check_l l;
  let d = Vec.dim l in
  let slack = budget ~l ~c_total ~lower in
  if slack <= 0. then 0.
  else
    let prod = Array.fold_left ( *. ) 1. l in
    (slack ** float_of_int d) *. volume d /. prod

let to_ideal ~l ~c_total ?lower x =
  check_l l;
  if Array.length x <> Vec.dim l then
    invalid_arg "Simplex.to_ideal: dimension mismatch";
  let slack = budget ~l ~c_total ~lower in
  if slack < 0. then invalid_arg "Simplex.to_ideal: lower bound is infeasible";
  let base k = match lower with None -> 0. | Some b -> b.(k) in
  Array.mapi (fun k xk -> base k +. (xk *. slack /. l.(k))) x

let sample_ideal ~l ~c_total ?lower ~cube_point () =
  to_ideal ~l ~c_total ?lower (of_cube cube_point)

let sample_ideal_into ~l ~c_total ?lower ~cube_point ~scratch dst =
  check_l l;
  let d = Vec.dim l in
  if Array.length cube_point <> d then
    invalid_arg "Simplex.sample_ideal_into: dimension mismatch";
  if Array.length scratch <> d || Array.length dst <> d then
    invalid_arg "Simplex.sample_ideal_into: buffer dimension mismatch";
  let slack = budget ~l ~c_total ~lower in
  if slack < 0. then
    invalid_arg "Simplex.to_ideal: lower bound is infeasible";
  if scratch != cube_point then Array.blit cube_point 0 scratch 0 d;
  (* Insertion sort by [Float.compare]: [d] is at most a few dozen, and
     [Array.sort] would box two floats per comparison. *)
  let j = ref 0 in
  for k = 1 to d - 1 do
    let x = scratch.(k) in
    j := k - 1;
    while !j >= 0 && Float.compare scratch.(!j) x > 0 do
      scratch.(!j + 1) <- scratch.(!j);
      decr j
    done;
    scratch.(!j + 1) <- x
  done;
  (* Descending, so [dst] may alias [scratch]: step [k] reads
     [scratch.(k)] and [scratch.(k - 1)], both still unwritten. *)
  for k = d - 1 downto 0 do
    let gap = if k = 0 then scratch.(0) else scratch.(k) -. scratch.(k - 1) in
    let base = match lower with None -> 0. | Some b -> b.(k) in
    dst.(k) <- base +. (gap *. slack /. l.(k))
  done
