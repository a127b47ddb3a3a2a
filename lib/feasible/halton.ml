(* rodlint: hot *)
(* rodlint: deterministic *)

let primes =
  [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71 |]

let max_dim = Array.length primes

(* The digit loop keeps its running values in local refs: a recursive
   helper taking them as arguments boxes both floats on every digit.
   Each digit adds [digit * inv_scale] before [inv_scale] shrinks. *)
let radical_inverse ~base i =
  if base < 2 then invalid_arg "Halton.radical_inverse: base < 2";
  if i < 0 then invalid_arg "Halton.radical_inverse: negative index";
  let fbase = float_of_int base in
  let rest = ref i and inv_scale = ref (1. /. fbase) and acc = ref 0. in
  while !rest <> 0 do
    acc := !acc +. (float_of_int (!rest mod base) *. !inv_scale);
    inv_scale := !inv_scale /. fbase;
    rest := !rest / base
  done;
  !acc

let dim_error = Printf.sprintf "Halton.point: dim outside [1, %d]" max_dim

let point_into dst i =
  let dim = Array.length dst in
  if dim < 1 || dim > max_dim then invalid_arg dim_error;
  if i < 0 then invalid_arg "Halton.point: negative index";
  for k = 0 to dim - 1 do
    dst.(k) <- radical_inverse ~base:primes.(k) (i + 1)
  done

let point ~dim i =
  if dim < 1 || dim > max_dim then invalid_arg dim_error;
  let dst = Array.make dim 0. in
  point_into dst i;
  dst

let sequence ~dim ~n = Array.init n (fun i -> point ~dim i)
