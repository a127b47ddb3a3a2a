(* The linter walks compiler-libs parsetrees (no typing pass: every
   rule is syntactic, which keeps a full-repo run well under a second).
   See lint.mli for the rule catalogue. *)

open Parsetree
module SSet = Set.Make (String)

type diag = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let hot_marker = "rodlint: hot"
let obs_marker = "rodlint: obs"

type ctx = {
  file : string;
  hot : bool;
  obs : bool;
  mutable diags : diag list;
}

let add ctx (loc : Location.t) rule fmt =
  let p = loc.loc_start in
  Printf.ksprintf
    (fun message ->
      ctx.diags <-
        {
          file = ctx.file;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          message;
        }
        :: ctx.diags)
    fmt

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

(* --- determinism rules (and the hot/obs per-identifier rules), fired
   on every identifier use --- *)

(* Console side-channels flagged in obs-instrumented modules.  String
   renderers ([sprintf], [ksprintf], [Format.asprintf], buffer/channel
   [fprintf]) are deliberately absent: only writes to the process's
   stdout/stderr bypass the registry. *)
let console_printers =
  SSet.of_list
    [ "print_string"; "print_endline"; "print_newline"; "print_int";
      "print_float"; "print_char"; "print_bytes"; "prerr_string";
      "prerr_endline"; "prerr_newline"; "prerr_int"; "prerr_float";
      "prerr_char"; "prerr_bytes" ]

let check_ident ctx loc lid =
  match flatten_lid lid with
  | [ ("Printf" | "Format"); (("printf" | "eprintf") as f) ] when ctx.obs ->
    add ctx loc "obs/print-telemetry"
      "%s.%s writes to a console stream from an obs-instrumented module; \
       record telemetry through the Obs registry (counters, gauges, spans) \
       and let an exporter render it"
      (List.hd (flatten_lid lid))
      f
  | ([ f ] | [ "Stdlib"; f ]) when ctx.obs && SSet.mem f console_printers ->
    add ctx loc "obs/print-telemetry"
      "%s writes to a console stream from an obs-instrumented module; \
       record telemetry through the Obs registry (counters, gauges, spans) \
       and let an exporter render it"
      f
  | [ "Random"; "self_init" ] ->
    add ctx loc "determinism/self-init"
      "Random.self_init seeds from the environment; derive a seed and use \
       Random.State.make instead"
  | [ "Random"; f ] ->
    add ctx loc "determinism/global-random"
      "Random.%s uses the global generator state; thread an explicit seeded \
       Random.State.t"
      f
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
    add ctx loc "determinism/wallclock"
      "wall-clock read (%s): results would depend on when the code runs"
      (String.concat "." (flatten_lid lid))
  | ([ "compare" ] | [ "Stdlib"; "compare" ]) when ctx.hot ->
    add ctx loc "hot/poly-compare"
      "polymorphic compare in a hot module; use Float.compare / Int.compare \
       or an explicit comparator"
  | _ -> ()

let ident_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> flatten_lid txt
  | _ -> []

(* --- hot-path hygiene helpers --- *)

let float_functions =
  SSet.of_list
    [ "sqrt"; "exp"; "log"; "log10"; "float_of_int"; "abs_float"; "cos"; "sin";
      "tan"; "atan"; "atan2"; "ceil"; "floor"; "mod_float" ]

let is_float_operator name =
  String.length name > 1
  && name.[String.length name - 1] = '.'
  && String.contains "+-*/*" name.[0]

let looks_float (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
    match flatten_lid txt with
    | [ ("infinity" | "neg_infinity" | "nan" | "epsilon_float" | "max_float"
        | "min_float") ] ->
      true
    | "Float" :: _ :: _ -> true
    | _ -> false)
  | Pexp_apply (fn, _) -> (
    match ident_path fn with
    | [ op ] when is_float_operator op -> true
    | [ f ] when SSet.mem f float_functions -> true
    | "Float" :: _ :: _ -> true
    | _ -> false)
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ })
    ->
    true
  | _ -> false

(* --- the main per-file iterator --- *)

let main_iterator ctx =
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident ctx e.pexp_loc txt
    | Pexp_apply (fn, [ (_, a); (_, b) ]) when ctx.hot -> (
      match ident_path fn with
      | [ (("=" | "<>") as op) ] when looks_float a || looks_float b ->
        add ctx e.pexp_loc "hot/float-eq"
          "polymorphic %s on floats in a hot module; use Float.compare (or \
           an epsilon) — float equality also mishandles nan"
          op
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  { Ast_iterator.default_iterator with expr }

let lint_string ?hot ?obs ~filename source =
  let comments = lazy (Comments.of_string source) in
  let marked flag marker =
    match flag with
    | Some b -> b
    | None -> Comments.mem (Lazy.force comments) marker
  in
  let hot = marked hot hot_marker and obs = marked obs obs_marker in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  match Parse.implementation lexbuf with
  | structure ->
    let ctx = { file = filename; hot; obs; diags = [] } in
    let it = main_iterator ctx in
    it.structure it structure;
    List.rev ctx.diags
  | exception exn -> (
    let fallback message =
      [ { file = filename; line = 1; col = 0; rule = "parse/error"; message } ]
    in
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      let loc = report.Location.main.loc in
      [
        {
          file = filename;
          line = loc.loc_start.Lexing.pos_lnum;
          col = loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol;
          rule = "parse/error";
          message = Format.asprintf "%t" report.Location.main.txt;
        };
      ]
    | Some `Already_displayed | None -> fallback (Printexc.to_string exn))

let lint_file ?hot ?obs path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  lint_string ?hot ?obs ~filename:path source

let render (d : diag) =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message
