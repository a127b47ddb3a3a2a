(* Conforming: marker text inside a string literal is data, not a
   marker — only comments carry markers. *)

let budget = 1.0
let report () = Printf.sprintf "rodunits: %d units checked" 3
