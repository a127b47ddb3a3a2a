(* rodunits' engine: dimensional analysis over typedtrees.  Dimension
   facts are seeded from marker comments in interfaces, propagated
   interprocedurally through Scan's def-index (mul/div compose
   dimensions, add/compare require equal ones, literals adapt), and
   checked at every arithmetic site.  Markers count only inside
   comments, so the comments here spell the marker without its
   colon. *)

open Typedtree

let units_marker = "rodunits:"
let expect_marker = "rodunits-expect:"

let rules =
  [
    ( "units/mixed-add",
      "values of two different dimensions are added or subtracted" );
    ( "units/mixed-compare",
      "values of two different dimensions are compared (ordering, \
       min/max, compare)" );
    ( "units/dim-mismatch-call",
      "an argument, record field, or function body disagrees with the \
       declared dimension" );
    ( "units/unannotated-boundary",
      "an exported float in a dimension-annotated interface carries no \
       marker" );
    ( "units/bad-marker",
      "a dimension marker that does not parse or binds no declaration" );
    ("units/unused-hatch", "an ok-hatch suppresses nothing");
  ]

let sarif_rules =
  Sarif.rules_of_catalogue
    ~help_uri:"DESIGN.md#15-dimensional-analysis-rodunits" rules

(* ---------- the dimension group ---------- *)

module Dim = struct
  (* Exponent vector over the base units, index-aligned with
     [bases].  All operations are pure and return fresh arrays. *)
  type t = int array

  let bases = [| "tuple"; "cpu-sec"; "sim-sec"; "byte"; "node-cap" |]
  let n = Array.length bases
  let base_names = Array.to_list bases
  let one = Array.make n 0

  let base name =
    let rec find i =
      if i >= n then None
      else if String.equal bases.(i) name then
        Some (Array.init n (fun j -> if j = i then 1 else 0))
      else find (i + 1)
    in
    find 0

  let mul a b = Array.init n (fun i -> a.(i) + b.(i))
  let inv a = Array.map (fun e -> -e) a
  let div a b = mul a (inv b)
  let pow a k = Array.map (fun e -> e * k) a
  let equal (a : t) (b : t) = a = b

  let to_string d =
    let parts = ref [] in
    for i = n - 1 downto 0 do
      if d.(i) <> 0 then
        parts :=
          (if d.(i) = 1 then bases.(i)
           else Printf.sprintf "%s^%d" bases.(i) d.(i))
          :: !parts
    done;
    match !parts with [] -> "1" | parts -> String.concat "*" parts

  (* The composite quantities the repo talks about constantly get
     names; everything else is spelled out in base units. *)
  let alias name =
    let b s = Option.get (base s) in
    match name with
    | "1" | "ratio" -> Some one
    | "rate" -> Some (div (b "tuple") (b "sim-sec"))
    | "load-coeff" -> Some (div (b "cpu-sec") (b "tuple"))
    | _ -> None

  let parse_factor tok =
    let name, exp =
      match String.index_opt tok '^' with
      | None -> (tok, Ok 1)
      | Some i ->
        let e = String.sub tok (i + 1) (String.length tok - i - 1) in
        ( String.sub tok 0 i,
          match int_of_string_opt e with
          | Some k -> Ok k
          | None -> Error (Printf.sprintf "bad exponent %S" e) )
    in
    match exp with
    | Error _ as err -> err |> Result.map (fun _ -> one)
    | Ok k -> (
      match alias name with
      | Some d -> Ok (pow d k)
      | None -> (
        match base name with
        | Some d -> Ok (pow d k)
        | None ->
          Error
            (Printf.sprintf "unknown unit %S (bases: %s; aliases: rate, \
                             load-coeff, ratio, 1)"
               name
               (String.concat ", " base_names))))

  let parse s =
    let s = String.trim s in
    if s = "" then Error "empty dimension expression"
    else begin
      (* Split into signed factors: the first is positive, each
         subsequent factor's sign comes from its separator, so
         [a/b*c] means a·b⁻¹·c and [a/b/c] means a·b⁻¹·c⁻¹. *)
      let factors = ref [] and buf = Buffer.create 16 and sign = ref 1 in
      let flush next_sign =
        factors := (!sign, String.trim (Buffer.contents buf)) :: !factors;
        Buffer.clear buf;
        sign := next_sign
      in
      String.iter
        (fun c ->
          match c with
          | '*' -> flush 1
          | '/' -> flush (-1)
          | c -> Buffer.add_char buf c)
        s;
      flush 1;
      List.fold_left
        (fun acc (sg, tok) ->
          match acc with
          | Error _ -> acc
          | Ok d ->
            if tok = "" then Error "empty factor in dimension expression"
            else
              Result.map
                (fun f -> mul d (if sg = 1 then f else inv f))
                (parse_factor tok))
        (Ok one) (List.rev !factors)
    end
end

(* ---------- the abstract-value lattice ---------- *)

module Abs = struct
  type t = Poly | Unknown | Dim of Dim.t | Conflict

  let equal a b =
    match (a, b) with
    | Poly, Poly | Unknown, Unknown | Conflict, Conflict -> true
    | Dim x, Dim y -> Dim.equal x y
    | _ -> false

  (* Poly ⊑ Unknown ⊑ Dim d ⊑ Conflict, distinct dims incomparable.
     This is both the branch merge and the add/min/max transfer: a
     literal adapts to anything, an unknown stays consistent with any
     single dimension, and two different concrete dimensions conflict
     — exactly the condition the mixed-add check fires on. *)
  let join a b =
    match (a, b) with
    | Conflict, _ | _, Conflict -> Conflict
    | Dim x, Dim y -> if Dim.equal x y then Dim x else Conflict
    | (Dim _ as d), _ | _, (Dim _ as d) -> d
    | Unknown, _ | _, Unknown -> Unknown
    | Poly, Poly -> Poly

  let leq a b = equal (join a b) b

  (* Multiplication: Poly is the identity, Unknown absorbs (a product
     with an unknown factor is unknown — claiming otherwise is how
     false positives happen), Conflict absorbs everything. *)
  let mul a b =
    match (a, b) with
    | Conflict, _ | _, Conflict -> Conflict
    | Unknown, _ | _, Unknown -> Unknown
    | Poly, x | x, Poly -> x
    | Dim x, Dim y -> Dim (Dim.mul x y)

  let inv = function Dim d -> Dim (Dim.inv d) | x -> x
  let div a b = mul a (inv b)

  let to_string = function
    | Poly -> "a literal"
    | Unknown -> "unknown"
    | Dim d -> Dim.to_string d
    | Conflict -> "conflicting"
end

let find_substring line needle =
  let hl = String.length line and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then None
    else if String.sub line i nl = needle then Some i
    else scan (i + 1)
  in
  scan 0

(* Split on a multi-char separator (the spec's arrow). *)
let split_on_sub sep s =
  let rec go acc s =
    match find_substring s sep with
    | None -> List.rev (s :: acc)
    | Some i ->
      let before = String.sub s 0 i in
      let after =
        String.sub s
          (i + String.length sep)
          (String.length s - i - String.length sep)
      in
      go (before :: acc) after
  in
  go [] s

(* ---------- interface seeding ---------- *)

type vannot = {
  va_params : (string * Dim.t) list;  (* labelled parameter -> dim *)
  va_result : Dim.t option;
}

type iface = {
  if_marked : bool;
  if_annots : (string * vannot) list;  (* "Canon.path.name" -> annot *)
  if_fields : (string * Dim.t) list;  (* "Canon.path.type.label" -> dim *)
  if_diags : Lint.diag list;
  if_vals : int;
  if_fields_n : int;
}

(* A spec is [(label:dim -> )* (dim | _)]; fields take the bare tail
   form only. *)
let parse_spec ~allow_params spec =
  let segs = split_on_sub "->" spec |> List.map String.trim in
  match List.rev segs with
  | [] -> Error "empty marker"
  | last :: rev_init ->
    let result =
      if last = "_" then Ok None
      else Result.map Option.some (Dim.parse last)
    in
    let params =
      List.fold_left
        (fun acc seg ->
          match acc with
          | Error _ -> acc
          | Ok ps -> (
            match String.index_opt seg ':' with
            | None ->
              Error
                (Printf.sprintf
                   "parameter segment %S is not of the form label:dim" seg)
            | Some i ->
              let label = String.trim (String.sub seg 0 i) in
              let dim =
                String.sub seg (i + 1) (String.length seg - i - 1)
              in
              if label = "" then Error "empty parameter label"
              else Result.map (fun d -> (label, d) :: ps) (Dim.parse dim)))
        (Ok []) (List.rev rev_init)
    in
    (match (params, result) with
    | Error e, _ | _, Error e -> Error e
    | Ok ps, Ok r ->
      if ps <> [] && not allow_params then
        Error "record fields take a bare dimension, not parameter segments"
      else Ok { va_params = List.rev ps; va_result = r })

let rec final_result (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (_, _, r) -> final_result r
  | Ptyp_poly (_, r) -> final_result r
  | _ -> t

let is_float_type (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
  | _ -> false

let parse_iface ~canon ~file text =
  (* line -> (spec, standalone).  A standalone marker (the line holds
     nothing but the comment) may bind the declaration ending on the
     line above — the shape long signatures force; a trailing marker
     binds the declaration on its own line. *)
  let markers = Hashtbl.create 16 in
  List.iter
    (fun (h : Comments.hit) ->
      Hashtbl.replace markers h.line (String.trim h.rest, h.leads))
    (Comments.find (Comments.of_string text) units_marker);
  let marked = Hashtbl.length markers > 0 in
  let consumed = Hashtbl.create 16 in
  let diags = ref [] and annots = ref [] and fields = ref [] in
  let vals = ref 0 and fields_n = ref 0 in
  let diag line rule message =
    diags := { Lint.file; line; col = 0; rule; message } :: !diags
  in
  let consume line spec =
    Hashtbl.replace consumed line ();
    Some (line, spec)
  in
  (* Binding order: trailing on the declaration's first line, trailing
     on its last line, standalone on the line directly after. *)
  let marker_for (loc : Location.t) =
    let first = loc.Location.loc_start.Lexing.pos_lnum in
    let last = loc.Location.loc_end.Lexing.pos_lnum in
    match Hashtbl.find_opt markers first with
    | Some (spec, _) -> consume first spec
    | None -> (
      match (if last <> first then Hashtbl.find_opt markers last else None) with
      | Some (spec, _) -> consume last spec
      | None -> (
        match Hashtbl.find_opt markers (last + 1) with
        | Some (spec, true) -> consume (last + 1) spec
        | _ -> None))
  in
  let bind_value path (name : string Location.loc) full_loc ty =
    let line = name.loc.Location.loc_start.Lexing.pos_lnum in
    match marker_for full_loc with
    | Some (mline, spec) -> (
      match parse_spec ~allow_params:true spec with
      | Ok va ->
        incr vals;
        annots :=
          (String.concat "." (canon :: (path @ [ name.txt ])), va) :: !annots
      | Error e -> diag mline "units/bad-marker" e)
    | None ->
      if marked && is_float_type (final_result ty) then
        diag line "units/unannotated-boundary"
          (Printf.sprintf
             "exported float %s carries no dimension marker in an annotated \
              interface; annotate it or add a units/unannotated-boundary \
              allow entry"
             name.txt)
  in
  let bind_field path tyname (ld : Parsetree.label_declaration) =
    let line = ld.pld_name.loc.Location.loc_start.Lexing.pos_lnum in
    match marker_for ld.pld_loc with
    | Some (mline, spec) -> (
      match parse_spec ~allow_params:false spec with
      | Ok { va_result = Some d; _ } ->
        incr fields_n;
        fields :=
          ( String.concat "."
              (canon :: (path @ [ tyname; ld.pld_name.txt ])),
            d )
          :: !fields
      | Ok { va_result = None; _ } ->
        diag mline "units/bad-marker"
          "a record-field marker needs a concrete dimension, not _"
      | Error e -> diag mline "units/bad-marker" e)
    | None ->
      if marked && is_float_type ld.pld_type then
        diag line "units/unannotated-boundary"
          (Printf.sprintf
             "exported float field %s carries no dimension marker in an \
              annotated interface; annotate it or add a \
              units/unannotated-boundary allow entry"
             ld.pld_name.txt)
  in
  let rec items path sigs =
    List.iter
      (fun (si : Parsetree.signature_item) ->
        match si.psig_desc with
        | Psig_value vd -> bind_value path vd.pval_name vd.pval_loc vd.pval_type
        | Psig_type (_, decls) ->
          List.iter
            (fun (td : Parsetree.type_declaration) ->
              match td.ptype_kind with
              | Ptype_record lds ->
                List.iter (bind_field path td.ptype_name.txt) lds
              | _ -> ())
            decls
        | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type; _ } -> (
          match pmd_type.pmty_desc with
          | Pmty_signature sigs -> items (path @ [ m ]) sigs
          | _ -> ())
        | _ -> ())
      sigs
  in
  (match Parse.interface (Lexing.from_string text) with
  | sigs -> items [] sigs
  | exception _ ->
    if marked then
      diag 1 "units/bad-marker"
        "this interface carries dimension markers but does not parse; the \
         markers cannot be bound");
  Hashtbl.iter
    (fun line _ ->
      if not (Hashtbl.mem consumed line) then
        diag line "units/bad-marker"
          "this dimension marker binds no declaration; put it on the line \
           declaring the val or record label")
    markers;
  {
    if_marked = marked;
    if_annots = !annots;
    if_fields = !fields;
    if_diags = !diags;
    if_vals = !vals;
    if_fields_n = !fields_n;
  }

(* ---------- implementation-side metadata (hatches) ---------- *)

type hatch = { hline : int; mutable used : bool }

type meta = {
  hatches : (int, hatch) Hashtbl.t;
  bad_lines : (int * string) list;
}

let meta_of_unit (u : Scan.unit_info) =
  let hatches = Hashtbl.create 7 and bad = ref [] in
  List.iter
    (fun (h : Comments.hit) ->
      let ln = h.line in
      match Comments.words h.rest with
      | "ok" :: _ :: _ -> Hashtbl.replace hatches ln { hline = ln; used = false }
      | [ "ok" ] ->
        bad := (ln, "an ok-hatch needs a justification after the ok") :: !bad
      | _ ->
        bad :=
          ( ln,
            "dimension markers belong in the interface (.mli); in \
             implementations only ok-hatches are recognized" )
          :: !bad)
    (Comments.find u.Scan.comments units_marker);
  { hatches; bad_lines = List.rev !bad }

(* ---------- diagnostics ---------- *)

type ctx = {
  mutable diags : Lint.diag list;
  mutable hatches_used : int;
  mutable report : bool;
}

let add_line_diag ctx file line rule message =
  ctx.diags <- { Lint.file; line; col = 0; rule; message } :: ctx.diags

(* ---------- resolution tables ---------- *)

type genv = {
  dindex : Scan.dindex;
  annot_by_key : (string, vannot) Hashtbl.t;
  field_sfx : (string, string list) Hashtbl.t;  (* suffix -> full keys *)
  field_by_key : (string, Dim.t) Hashtbl.t;
  summaries : (string, Abs.t) Hashtbl.t;  (* constants only *)
  ctx : ctx;
}

(* Index every >= 2-component suffix of a dotted key, mirroring Scan's
   def index, so [move.cost], [Replanner.move.cost] and the
   dune-mangled spelling all resolve to the same field. *)
let sfx_add tbl key =
  let comps = String.split_on_char '.' key in
  let rec go = function
    | [] | [ _ ] -> ()
    | l ->
      let s = String.concat "." l in
      let prev = Option.value (Hashtbl.find_opt tbl s) ~default:[] in
      if not (List.mem key prev) then Hashtbl.replace tbl s (key :: prev);
      go (List.tl l)
  in
  go comps

type env = {
  g : genv;
  u : Scan.unit_info;
  meta : meta;
  locals : (string, Abs.t) Hashtbl.t;
}

(* Keys a dotted use may denote: a sibling in the same unit first
   (single-component names never reach the >= 2-component index),
   otherwise whatever Scan's def index resolves. *)
let resolve_keys env comps =
  match comps with
  | [] -> []
  | _ ->
    let name = String.concat "." comps in
    let same_unit = env.u.Scan.canon ^ "." ^ name in
    if
      Hashtbl.mem env.g.annot_by_key same_unit
      || Hashtbl.mem env.g.summaries same_unit
    then [ same_unit ]
    else
      List.map
        (fun (d : Scan.def) -> d.Scan.key)
        (Scan.resolve_defs env.g.dindex name)

let annot_of_keys g keys =
  match List.filter_map (Hashtbl.find_opt g.annot_by_key) keys with
  | [] -> None
  | a :: rest -> if List.for_all (fun a' -> a' = a) rest then Some a else None

let result_of_keys g keys =
  match annot_of_keys g keys with
  | Some { va_result = Some d; _ } -> Abs.Dim d
  | Some { va_result = None; _ } -> Abs.Unknown
  | None -> (
    match List.filter_map (Hashtbl.find_opt g.summaries) keys with
    | [] -> Abs.Unknown
    | v :: rest ->
      if List.for_all (Abs.equal v) rest then v else Abs.Unknown)

(* The dimension of a record label, resolved through the label's
   record type so same-named fields of different records (a move's
   cost in seconds vs an operator's cost coefficient) stay distinct. *)
let field_dim g (label : Types.label_description) =
  match Types.get_desc label.lbl_res with
  | Types.Tconstr (p, _, _) -> (
    let key =
      String.concat "." (Scan.canon_of_path p @ [ label.lbl_name ])
    in
    match Hashtbl.find_opt g.field_sfx key with
    | None -> None
    | Some keys -> (
      match List.filter_map (Hashtbl.find_opt g.field_by_key) keys with
      | [] -> None
      | d :: rest ->
        if List.for_all (Dim.equal d) rest then Some d else None))
  | _ -> None

(* ---------- reporting with hatches ---------- *)

let hatch_at env line =
  match Hashtbl.find_opt env.meta.hatches line with
  | Some h -> Some h
  | None -> Hashtbl.find_opt env.meta.hatches (line - 1)

let report env (loc : Location.t) rule fmt =
  let p = loc.Location.loc_start in
  Printf.ksprintf
    (fun message ->
      if env.g.ctx.report then
        match hatch_at env p.Lexing.pos_lnum with
        | Some h ->
          if not h.used then begin
            h.used <- true;
            env.g.ctx.hatches_used <- env.g.ctx.hatches_used + 1
          end
        | None ->
          env.g.ctx.diags <-
            {
              Lint.file = env.u.Scan.source;
              line = p.Lexing.pos_lnum;
              col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
              rule;
              message;
            }
            :: env.g.ctx.diags)
    fmt

(* ---------- the walk ---------- *)

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let ident_comps (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Scan.canon_of_path p
  | _ -> []

(* Operator classification on canonical components (Stdlib is already
   dropped, so [Stdlib.(+.)] arrives as ["+."]). *)
let op_kind = function
  | [ ("+." | "-." | "+" | "-") as op ] -> `Add op
  | [ ("*." | "*") ] -> `Mul
  | [ ("/." | "/") ] -> `Div
  | [ ("~-." | "~-" | "abs_float" | "float_of_int" | "int_of_float"
      | "truncate" | "floor" | "ceil") ]
  | [ "Float"; ("abs" | "neg" | "of_int" | "to_int" | "round" | "floor"
               | "ceil" | "succ" | "pred") ]
  | [ "Int"; ("abs" | "neg" | "of_float" | "to_float") ] ->
    `Pass
  | [ (("min" | "max") as op) ]
  | [ "Float"; (("min" | "max" | "min_num" | "max_num") as op) ]
  | [ "Int"; (("min" | "max") as op) ] ->
    `Minmax op
  | [ (("<" | "<=" | ">" | ">=" | "=" | "<>" | "compare") as op) ]
  | [ "Float"; (("compare" | "equal") as op) ]
  | [ "Int"; (("compare" | "equal") as op) ] ->
    `Cmp op
  | _ -> `Call

let check_field env loc (label : Types.label_description) v =
  match (field_dim env.g label, v) with
  | Some d, Abs.Dim d' when not (Dim.equal d d') ->
    report env loc "units/dim-mismatch-call"
      "field %s is %s but receives %s" label.lbl_name (Dim.to_string d)
      (Dim.to_string d')
  | _ -> ()

let bind_local env id v = Hashtbl.replace env.locals (Ident.unique_name id) v

(* Shallow pattern binding: plain vars and aliases take the matched
   value; record-pattern vars take their field's dimension.  Deeper
   shapes stay unbound (Unknown on lookup) — conservative. *)
let rec bind_pattern : type k. env -> k general_pattern -> Abs.t -> unit =
 fun env p v ->
  match p.pat_desc with
  | Tpat_value arg -> bind_pattern env (arg :> value general_pattern) v
  | Tpat_var (id, _) -> bind_local env id v
  | Tpat_alias (q, id, _) ->
    bind_local env id v;
    bind_pattern env q v
  | Tpat_record (fields, _) ->
    List.iter
      (fun (_, label, pat) ->
        let fv =
          match field_dim env.g label with
          | Some d -> Abs.Dim d
          | None -> Abs.Unknown
        in
        bind_pattern env pat fv)
      fields
  | _ -> ()

let rec eval env (e : expression) : Abs.t =
  match e.exp_desc with
  | Texp_constant _ -> Abs.Poly
  | Texp_ident (p, _, _) ->
    if is_arrow e.exp_type then Abs.Unknown
    else begin
      let local =
        match p with
        | Path.Pident id -> Hashtbl.find_opt env.locals (Ident.unique_name id)
        | _ -> None
      in
      match local with
      | Some v -> v
      | None -> result_of_keys env.g (resolve_keys env (Scan.canon_of_path p))
    end
  | Texp_let (_, vbs, body) ->
    List.iter
      (fun vb ->
        let v = eval env vb.vb_expr in
        bind_pattern env vb.vb_pat v)
      vbs;
    eval env body
  | Texp_function { cases; _ } ->
    List.iter (fun c -> ignore (eval env c.c_rhs)) cases;
    Abs.Unknown
  | Texp_apply (fn, args) -> eval_apply env e fn args
  | Texp_match (scrut, cases, _) ->
    let sv = eval env scrut in
    List.fold_left
      (fun acc c ->
        bind_pattern env c.c_lhs sv;
        (match c.c_guard with Some g -> ignore (eval env g) | None -> ());
        Abs.join acc (eval env c.c_rhs))
      Abs.Poly cases
  | Texp_try (body, cases) ->
    let bv = eval env body in
    List.fold_left
      (fun acc c ->
        bind_pattern env c.c_lhs Abs.Unknown;
        Abs.join acc (eval env c.c_rhs))
      bv cases
  | Texp_ifthenelse (cond, thn, els) -> (
    ignore (eval env cond);
    let tv = eval env thn in
    match els with
    | Some e2 -> Abs.join tv (eval env e2)
    | None -> Abs.Unknown)
  | Texp_sequence (a, b) ->
    ignore (eval env a);
    eval env b
  | Texp_field (r, _, label) -> (
    ignore (eval env r);
    match field_dim env.g label with
    | Some d -> Abs.Dim d
    | None -> Abs.Unknown)
  | Texp_setfield (r, _, label, v) ->
    ignore (eval env r);
    let a = eval env v in
    check_field env v.exp_loc label a;
    Abs.Unknown
  | Texp_record { fields; extended_expression; _ } ->
    Option.iter (fun ex -> ignore (eval env ex)) extended_expression;
    Array.iter
      (fun (label, def) ->
        match def with
        | Overridden (_, ex) ->
          let a = eval env ex in
          check_field env ex.exp_loc label a
        | Kept _ -> ())
      fields;
    Abs.Unknown
  | _ ->
    (* Anything else: walk the children for findings, value unknown. *)
    let expr _it child = ignore (eval env child) in
    let it = { Tast_iterator.default_iterator with expr } in
    Tast_iterator.default_iterator.expr it e;
    Abs.Unknown

and eval_apply env (e : expression) fn args =
  (match fn.exp_desc with
  | Texp_ident _ -> ()
  | _ -> ignore (eval env fn));
  let evargs =
    List.map
      (fun (l, a) -> (l, Option.map (fun a -> (a, eval env a)) a))
      args
  in
  let pos =
    List.filter_map
      (function Asttypes.Nolabel, Some (_, v) -> Some v | _ -> None)
      evargs
  in
  let comps = ident_comps fn in
  match (op_kind comps, pos) with
  | `Add op, [ a; b ] ->
    (match (a, b) with
    | Abs.Dim x, Abs.Dim y when not (Dim.equal x y) ->
      report env e.exp_loc "units/mixed-add"
        "operands of %s have different dimensions: %s vs %s" op
        (Dim.to_string x) (Dim.to_string y)
    | _ -> ());
    Abs.join a b
  | `Mul, [ a; b ] -> Abs.mul a b
  | `Div, [ a; b ] -> Abs.div a b
  | `Pass, [ a ] -> a
  | `Minmax op, [ a; b ] ->
    (match (a, b) with
    | Abs.Dim x, Abs.Dim y when not (Dim.equal x y) ->
      report env e.exp_loc "units/mixed-compare"
        "operands of %s have different dimensions: %s vs %s" op
        (Dim.to_string x) (Dim.to_string y)
    | _ -> ());
    Abs.join a b
  | `Cmp op, [ a; b ] ->
    (match (a, b) with
    | Abs.Dim x, Abs.Dim y when not (Dim.equal x y) ->
      report env e.exp_loc "units/mixed-compare"
        "comparing %s against %s with %s" (Dim.to_string x) (Dim.to_string y)
        op
    | _ -> ());
    Abs.Unknown
  | _ -> (
    let keys = resolve_keys env comps in
    match annot_of_keys env.g keys with
    | Some va ->
      List.iter
        (fun (l, a) ->
          match (l, a) with
          | Asttypes.Labelled lbl, Some ((arg : expression), v) -> (
            match (List.assoc_opt lbl va.va_params, v) with
            | Some d, Abs.Dim d' when not (Dim.equal d d') ->
              report env arg.exp_loc "units/dim-mismatch-call"
                "argument ~%s of %s is %s but receives %s" lbl
                (String.concat "." comps) (Dim.to_string d)
                (Dim.to_string d')
            | _ -> ())
          | _ -> ())
        evargs;
      if is_arrow e.exp_type then Abs.Unknown
      else (
        match va.va_result with
        | Some d -> Abs.Dim d
        | None -> Abs.Unknown)
    | None ->
      if is_arrow e.exp_type then Abs.Unknown else result_of_keys env.g keys)

(* Evaluate a def's fully-applied result: peel the function layers,
   binding annotated labelled parameters to their declared dimensions
   on the way down. *)
let eval_def env annot_params (d : Scan.def) =
  Hashtbl.reset env.locals;
  let rec strip (e : expression) =
    match e.exp_desc with
    | Texp_function { arg_label; cases; _ } ->
      let pv =
        match arg_label with
        | Asttypes.Labelled l -> (
          match List.assoc_opt l annot_params with
          | Some d -> Abs.Dim d
          | None -> Abs.Unknown)
        | _ -> Abs.Unknown
      in
      List.fold_left
        (fun acc c ->
          bind_pattern env c.c_lhs pv;
          (match c.c_guard with Some g -> ignore (eval env g) | None -> ());
          Abs.join acc (strip c.c_rhs))
        Abs.Poly cases
    | _ -> eval env e
  in
  strip d.Scan.body

(* ---------- orchestration ---------- *)

type units_stats = {
  ifaces_annotated : int;
  vals_annotated : int;
  fields_annotated : int;
  defs_walked : int;
  hatches_used : int;
}

let default_read_mli path =
  if Sys.file_exists path then Some (Allowlist.read_file path) else None

let check_units ?(read_mli = default_read_mli) units =
  let units =
    List.sort (fun a b -> String.compare a.Scan.canon b.Scan.canon) units
  in
  let ctx = { diags = []; hatches_used = 0; report = false } in
  let ifaces_annotated = ref 0
  and vals_annotated = ref 0
  and fields_annotated = ref 0
  and defs_walked = ref 0 in
  let annot_by_key = Hashtbl.create 64
  and field_sfx = Hashtbl.create 64
  and field_by_key = Hashtbl.create 64
  and summaries = Hashtbl.create 256 in
  (* Interface seeding. *)
  List.iter
    (fun (u : Scan.unit_info) ->
      let mli = u.Scan.source ^ "i" in
      match read_mli mli with
      | None -> ()
      | Some text ->
        let iface = parse_iface ~canon:u.Scan.canon ~file:mli text in
        if iface.if_marked then incr ifaces_annotated;
        vals_annotated := !vals_annotated + iface.if_vals;
        fields_annotated := !fields_annotated + iface.if_fields_n;
        ctx.diags <- iface.if_diags @ ctx.diags;
        List.iter
          (fun (key, va) -> Hashtbl.replace annot_by_key key va)
          iface.if_annots;
        List.iter
          (fun (key, d) ->
            Hashtbl.replace field_by_key key d;
            sfx_add field_sfx key)
          iface.if_fields)
    units;
  let defs = Scan.defs_of_units units in
  let dindex = Scan.index_defs defs in
  let g = { dindex; annot_by_key; field_sfx; field_by_key; summaries; ctx } in
  let metas = Hashtbl.create 64 in
  List.iter
    (fun (u : Scan.unit_info) ->
      let meta = meta_of_unit u in
      Hashtbl.replace metas u.Scan.canon (u, meta);
      List.iter
        (fun (ln, msg) -> add_line_diag ctx u.Scan.source ln "units/bad-marker" msg)
        meta.bad_lines)
    units;
  let env_of (u : Scan.unit_info) =
    let _, meta = Hashtbl.find metas u.Scan.canon in
    { g; u; meta; locals = Hashtbl.create 32 }
  in
  (* Annotated results are pinned facts; they participate in constant
     resolution directly. *)
  Hashtbl.iter
    (fun key (va : vannot) ->
      match va.va_result with
      | Some d -> Hashtbl.replace summaries key (Abs.Dim d)
      | None -> ())
    annot_by_key;
  let pinned = Hashtbl.copy summaries in
  (* Constants fixpoint: module-level non-function bindings get their
     dimensions inferred from their bodies (functions do not — a
     result that depends on unannotated parameters would infer
     garbage; calls resolve through interface annotations instead).
     Join-monotone updates over a finite lattice, so this
     terminates; the iteration cap is belt and braces. *)
  let consts =
    List.filter
      (fun (d : Scan.def) ->
        (match d.Scan.body.exp_desc with
        | Texp_function _ -> false
        | _ -> true)
        && not (Hashtbl.mem pinned d.Scan.key))
      defs
  in
  ctx.report <- false;
  let changed = ref true and iters = ref 0 in
  while !changed && !iters < 10 do
    changed := false;
    incr iters;
    List.iter
      (fun (d : Scan.def) ->
        let env = env_of d.Scan.owner in
        let v = eval_def env [] d in
        let old =
          Option.value
            (Hashtbl.find_opt summaries d.Scan.key)
            ~default:Abs.Poly
        in
        let nv = Abs.join old v in
        if not (Abs.equal nv old) then begin
          Hashtbl.replace summaries d.Scan.key nv;
          changed := true
        end)
      consts
  done;
  (* Reporting pass: every def once, with hatch accounting live. *)
  ctx.report <- true;
  List.iter
    (fun (d : Scan.def) ->
      incr defs_walked;
      let env = env_of d.Scan.owner in
      let annot = Hashtbl.find_opt annot_by_key d.Scan.key in
      let params = match annot with Some a -> a.va_params | None -> [] in
      let v = eval_def env params d in
      match annot with
      | Some { va_result = Some dd; _ } -> (
        match v with
        | Abs.Dim di when not (Dim.equal di dd) ->
          report env d.Scan.def_loc "units/dim-mismatch-call"
            "%s is declared %s in its interface but its body evaluates to %s"
            d.Scan.key (Dim.to_string dd) (Dim.to_string di)
        | _ -> ())
      | _ -> ())
    defs;
  (* Anti-rot: a hatch that suppressed nothing is itself a finding. *)
  Hashtbl.iter
    (fun _ ((u : Scan.unit_info), (meta : meta)) ->
      Hashtbl.iter
        (fun _ h ->
          if not h.used then
            add_line_diag ctx u.Scan.source h.hline "units/unused-hatch"
              "this ok-hatch suppresses nothing; remove it (stale hatches \
               hide future regressions)")
        meta.hatches)
    metas;
  let diags = List.sort_uniq Scan.compare_diag ctx.diags in
  ( diags,
    {
      ifaces_annotated = !ifaces_annotated;
      vals_annotated = !vals_annotated;
      fields_annotated = !fields_annotated;
      defs_walked = !defs_walked;
      hatches_used = ctx.hatches_used;
    } )
