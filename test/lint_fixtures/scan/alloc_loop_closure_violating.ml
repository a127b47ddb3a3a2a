(* rodlint: hot *)
(* rodscan-expect: alloc/closure *)

(* A hot-marked module building one closure per loop iteration. *)

let sum_squares n =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let square = fun x -> x *. x in
    acc := !acc +. square (float_of_int i)
  done;
  !acc
