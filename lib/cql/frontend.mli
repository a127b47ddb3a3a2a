(** One-call front end: source text to an executable network, with
    human-readable positioned errors instead of exceptions. *)

type error = {
  pos : Ast.pos option;
  message : string;
}

val compile_string : string -> (Compile.compiled, error) result

val compile_file : path:string -> (Compile.compiled, error) result

val error_to_string : error -> string
(** ["line L, column C: message"]. *)

val describe : Compile.compiled -> string
(** A short plain-text summary: inputs with schemas, nodes with their
    operator's {!Spe.Sop.kind}, outputs. *)
