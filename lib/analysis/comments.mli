(** The comments of one OCaml source file, read with compiler-libs'
    lexer.  Every analysis pass finds its markers and escape hatches
    here, so marker words inside string literals or code never count:
    a format string that happens to spell a marker is just a string.

    A comment spanning several source lines is kept one line at a time,
    so a marker's position is the source line it sits on. *)

type t

val empty : t

val of_string : string -> t
(** Lex [source] and keep its comments (docstrings included).  Text
    that does not lex keeps the comments read before the error. *)

type hit = {
  line : int;  (** 1-based source line holding the marker. *)
  rest : string;  (** The comment text after the marker on that line. *)
  leads : bool;
      (** The marker opens its comment and the comment opens its source
          line: nothing but whitespace precedes it. *)
}

val find : t -> string -> hit list
(** Every comment line containing [marker], in source order. *)

val mem : t -> string -> bool

val words : string -> string list
(** Split on spaces, tabs and commas, dropping empty words. *)
