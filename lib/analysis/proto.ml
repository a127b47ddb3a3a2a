(* rodproto's engine: a path-sensitive typestate walk over the
   pause–drain–resume migration protocol, plus a gated-mutation
   analysis proving every deployed-assignment write is dominated by a
   Plan_check call.  Units opt in with a protocol marker and name their
   protocol state with role comments; see proto.mli for the rule
   catalogue and marker grammar. *)

open Typedtree
module SSet = Set.Make (String)

let protocol_marker = "rodproto: protocol"
let role_marker = "rodproto: role "
let gated_by_marker = "rodproto: gated-by "
let expect_marker = "rodproto-expect:"

let rules =
  [
    ( "proto/drain-without-pause",
      "a drain event is emitted while the operator is not paused" );
    ( "proto/double-resume",
      "an operator is resumed when it is already running" );
    ( "proto/missed-resume",
      "a drain-event handler path (typically the abort path) never schedules \
       the resume" );
    ( "proto/unguarded-send",
      "a tuple is delivered into an input queue without testing the paused \
       state" );
    ( "proto/ungated-mutation",
      "deployed-assignment state is mutated on a path not dominated by \
       Plan_check" );
    ( "proto/ungated-plan",
      "a Plan.make (or Rod_algorithm.plan) materialization is not \
       dominated by Plan_check" );
    ( "proto/stale-gate",
      "a gated-by hatch names a function that is unknown or no longer calls \
       Plan_check" );
    ("proto/unused-hatch", "a gated-by hatch suppresses nothing");
    ( "proto/missing-role",
      "a protocol-marked module declares an unusable role set, or a role \
       marker binds no declaration" );
  ]

let sarif_rules =
  Sarif.rules_of_catalogue
    ~help_uri:"DESIGN.md#13-protocol-typestate-verification-rodproto" rules

(* ---------- the typestate lattice ---------- *)

module State = struct
  type t = Bot | Running | Paused | Draining | Resuming | Top
  type event = Pause | Drain | Schedule | Resume

  let all = [ Bot; Running; Paused; Draining; Resuming; Top ]
  let events = [ Pause; Drain; Schedule; Resume ]
  let equal (a : t) (b : t) = a = b

  let join a b =
    if a = b then a
    else match (a, b) with Bot, x | x, Bot -> x | _ -> Top

  let leq a b = equal (join a b) b

  (* The happy path threads Running -> Paused -> Draining -> Resuming
     -> Running; any off-protocol event degrades to Top ("unknown"), on
     which the checks that would otherwise fire stay silent — the walk
     over-approximates control flow, so Top must never assert. *)
  let transfer ev st =
    match st with
    | Bot -> Bot
    | Top -> Top
    | _ -> (
      match (ev, st) with
      | Pause, Running -> Paused
      | Drain, Paused -> Draining
      | Schedule, Draining -> Resuming
      | Resume, (Resuming | Paused) -> Running
      | _ -> Top)

  let to_string = function
    | Bot -> "Bot"
    | Running -> "Running"
    | Paused -> "Paused"
    | Draining -> "Draining"
    | Resuming -> "Resuming"
    | Top -> "Top"

  let event_to_string = function
    | Pause -> "Pause"
    | Drain -> "Drain"
    | Schedule -> "Schedule"
    | Resume -> "Resume"
end

(* ---------- roles and unit metadata ---------- *)

type role =
  | Rpaused
  | Rpending
  | Rbuffer
  | Rinput_queue
  | Rassignment
  | Rdrain
  | Rresume

let role_of_string = function
  | "paused" -> Some Rpaused
  | "pending" -> Some Rpending
  | "buffer" -> Some Rbuffer
  | "input-queue" -> Some Rinput_queue
  | "deployed-assignment" -> Some Rassignment
  | "drain-event" -> Some Rdrain
  | "resume-event" -> Some Rresume
  | _ -> None

let first_word (h : Comments.hit) =
  match Comments.words h.rest with w :: _ -> Some w | [] -> None

type hatch = { fn : string; hline : int; mutable used : bool }

type meta = {
  protocol : bool;
  protocol_line : int;
  role_lines : (int * role) list;  (* marker line -> declared role *)
  bad_roles : (int * string) list;  (* unknown role spellings *)
  hatches : (int, hatch) Hashtbl.t;
}

let meta_of_unit (u : Scan.unit_info) =
  let find = Comments.find u.Scan.comments in
  let roles =
    List.filter_map
      (fun (h : Comments.hit) ->
        Option.map (fun tok -> (h.line, tok)) (first_word h))
      (find role_marker)
  in
  let hatches = Hashtbl.create 7 in
  List.iter
    (fun (h : Comments.hit) ->
      Option.iter
        (fun fn ->
          Hashtbl.replace hatches h.line { fn; hline = h.line; used = false })
        (first_word h))
    (find gated_by_marker);
  let protocol = find protocol_marker in
  {
    protocol = protocol <> [];
    protocol_line = (match protocol with h :: _ -> h.line | [] -> 1);
    role_lines =
      List.filter_map
        (fun (ln, tok) -> Option.map (fun r -> (ln, r)) (role_of_string tok))
        roles;
    bad_roles =
      List.filter (fun (_, tok) -> role_of_string tok = None) roles;
    hatches;
  }

let relevant u =
  let m = meta_of_unit u in
  m.protocol || m.role_lines <> []

(* ---------- role binding ----------

   A role marker binds every declaration whose name sits on the same
   line: value-binding idents (keyed by [Ident.unique_name], so
   shadowing never leaks a role), variant constructors, and record
   labels (keyed by name). *)

type roles = {
  idents : (string, role) Hashtbl.t;
  ctors : (string, role) Hashtbl.t;
  fields : (string, role) Hashtbl.t;
  bound_lines : (int, unit) Hashtbl.t;
  mutable count : int;
}

let bind_roles (u : Scan.unit_info) (meta : meta) =
  let roles =
    {
      idents = Hashtbl.create 16;
      ctors = Hashtbl.create 16;
      fields = Hashtbl.create 16;
      bound_lines = Hashtbl.create 16;
      count = 0;
    }
  in
  let line_role = Hashtbl.create 16 in
  List.iter (fun (ln, r) -> Hashtbl.replace line_role ln r) meta.role_lines;
  let bind tbl key (loc : Location.t) =
    let ln = loc.loc_start.Lexing.pos_lnum in
    match Hashtbl.find_opt line_role ln with
    | Some r ->
      Hashtbl.replace tbl key r;
      Hashtbl.replace roles.bound_lines ln ();
      roles.count <- roles.count + 1
    | None -> ()
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_var (id, name) -> bind roles.idents (Ident.unique_name id) name.loc
    | Tpat_alias (_, id, name) ->
      bind roles.idents (Ident.unique_name id) name.loc
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let structure_item it si =
    (match si.str_desc with
    | Tstr_type (_, decls) ->
      List.iter
        (fun td ->
          match td.typ_kind with
          | Ttype_variant cds ->
            List.iter
              (fun cd -> bind roles.ctors cd.cd_name.txt cd.cd_name.loc)
              cds
          | Ttype_record lds ->
            List.iter
              (fun ld -> bind roles.fields ld.ld_name.txt ld.ld_name.loc)
              lds
          | _ -> ())
        decls
    | _ -> ());
    Tast_iterator.default_iterator.structure_item it si
  in
  let it = { Tast_iterator.default_iterator with pat; structure_item } in
  it.structure it u.Scan.str;
  roles

(* ---------- diagnostics ---------- *)

type ctx = { mutable diags : Lint.diag list; mutable hatches_used : int }

let add_line_diag ctx (u : Scan.unit_info) line rule message =
  ctx.diags <-
    { Lint.file = u.Scan.source; line; col = 0; rule; message } :: ctx.diags

let add_diag ctx (u : Scan.unit_info) (loc : Location.t) rule fmt =
  let p = loc.Location.loc_start in
  Printf.ksprintf
    (fun message ->
      ctx.diags <-
        {
          Lint.file = u.Scan.source;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          message;
        }
        :: ctx.diags)
    fmt

(* ---------- the walk ---------- *)

type flow = { st : State.t; scheduled : bool; gated : bool }

type env = {
  u : Scan.unit_info;
  roles : roles;
  meta : meta;
  ctx : ctx;
  guarded : bool;  (* under a conditional that tests the paused state *)
}

let entry_flow ?(gated = false) () =
  { st = State.Running; scheduled = false; gated }

(* Branch merge: state joins; the must-facts (a resume was scheduled, a
   Plan_check dominates) survive only if they hold on every path. *)
let merge a b =
  {
    st = State.join a.st b.st;
    scheduled = a.scheduled && b.scheduled;
    gated = a.gated && b.gated;
  }

let ident_comps (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Scan.canon_of_path p
  | _ -> []

let rec last2 = function
  | [ a; b ] -> Some (a, b)
  | _ :: tl -> last2 tl
  | [] -> None

let pos_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

let gate_fns =
  SSet.of_list [ "assert_ok"; "check_graph"; "check_model"; "check_matrix"; "ok" ]

let is_gate comps =
  List.mem "Plan_check" comps
  && match List.rev comps with last :: _ -> SSet.mem last gate_fns | [] -> false

let is_array_get = function
  | [ "Array"; ("get" | "unsafe_get") ] -> true
  | _ -> false

(* The role of a mutation/send target: a role ident, a role record
   field, or an element projection of a role array. *)
let rec target_role env (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
    Hashtbl.find_opt env.roles.idents (Ident.unique_name id)
  | Texp_field (_, _, label) -> Hashtbl.find_opt env.roles.fields label.lbl_name
  | Texp_apply (fn, args) when is_array_get (ident_comps fn) -> (
    match pos_args args with a :: _ -> target_role env a | [] -> None)
  | _ -> None

let mentions_paused env (e : expression) =
  let found = ref false in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      if Hashtbl.find_opt env.roles.idents (Ident.unique_name id) = Some Rpaused
      then found := true
    | Texp_field (_, _, label) ->
      if Hashtbl.find_opt env.roles.fields label.lbl_name = Some Rpaused then
        found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let bool_lit (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, cd, []) -> (
    match cd.cstr_name with
    | "true" -> Some true
    | "false" -> Some false
    | _ -> None)
  | _ -> None

let rec pattern_ctor_role : type k. env -> k general_pattern -> role option =
 fun env p ->
  match p.pat_desc with
  | Tpat_value arg -> pattern_ctor_role env (arg :> value general_pattern)
  | Tpat_alias (q, _, _) -> pattern_ctor_role env q
  | Tpat_or (a, b, _) -> (
    match pattern_ctor_role env a with
    | Some r -> Some r
    | None -> pattern_ctor_role env b)
  | Tpat_construct (_, cd, _, _) ->
    Hashtbl.find_opt env.roles.ctors cd.cstr_name
  | _ -> None

let hatch_at env (loc : Location.t) =
  let line = loc.loc_start.Lexing.pos_lnum in
  match Hashtbl.find_opt env.meta.hatches line with
  | Some h -> Some h
  | None -> Hashtbl.find_opt env.meta.hatches (line - 1)

(* An ungated mutation is excused by a hatch on the same or preceding
   line; hatch validity (does the named function still gate?) is
   checked globally afterwards so the walk stays local. *)
let check_gated env (f : flow) (loc : Location.t) rule what =
  if not f.gated then
    match hatch_at env loc with
    | Some h ->
      if not h.used then begin
        h.used <- true;
        env.ctx.hatches_used <- env.ctx.hatches_used + 1
      end
    | None ->
      add_diag env.ctx env.u loc rule
        "%s is not dominated by a Plan_check call on this path; gate it \
         (Plan_check.assert_ok / check_graph / check_matrix) or justify with \
         a gated-by hatch naming the gating function"
        what

let rec eval env (f : flow) (e : expression) : flow =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ -> f
  | Texp_let (_, vbs, body) ->
    let f = List.fold_left (fun f vb -> eval env f vb.vb_expr) f vbs in
    eval env f body
  | Texp_function { cases; _ } ->
    lambda_cases env f cases;
    f
  | Texp_apply (fn, args) -> apply env f e fn args
  | Texp_match (scrut, cases, _) -> match_cases env f scrut cases
  | Texp_try (body, cases) ->
    let fb = eval env f body in
    List.fold_left
      (fun acc c ->
        let fc = eval env f c.c_rhs in
        merge acc fc)
      fb cases
  | Texp_ifthenelse (cond, thn, els) ->
    let f0 = eval env f cond in
    let genv =
      if env.guarded || mentions_paused env cond then { env with guarded = true }
      else env
    in
    let ft = eval genv f0 thn in
    let fe = match els with Some e2 -> eval genv f0 e2 | None -> f0 in
    merge ft fe
  | Texp_sequence (a, b) -> eval env (eval env f a) b
  | Texp_while (cond, body) ->
    let f0 = eval env f cond in
    let fb = eval env f0 body in
    (* The loop may run zero times: must-facts revert to the pre-loop
       flow, the state joins. *)
    { f0 with st = State.join f0.st fb.st }
  | Texp_for (_, _, lo, hi, _, body) ->
    let f0 = eval env (eval env f lo) hi in
    let fb = eval env f0 body in
    { f0 with st = State.join f0.st fb.st }
  | Texp_construct (_, cd, args) ->
    let f = List.fold_left (eval env) f args in
    construct env f e cd
  | Texp_setfield (lhs, _, label, rhs) ->
    let f = eval env (eval env f lhs) rhs in
    (match Hashtbl.find_opt env.roles.fields label.lbl_name with
    | Some Rassignment ->
      check_gated env f e.exp_loc "proto/ungated-mutation"
        (Printf.sprintf "write to deployed-assignment field %s"
           label.lbl_name)
    | _ -> ());
    f
  | _ -> default_children env f e

(* One case of a [match] or [function]: the pattern seeds the entry
   state — a drain-event handler starts Draining and owes a scheduled
   resume on every path out (the abort path is exactly where this
   catches bugs); a resume-event handler starts Resuming, which is what
   legalizes its own pause-flag clear. *)
and case_walk : type k. env -> flow -> k case -> flow =
 fun env f0 c ->
  let entry, must_schedule =
    match pattern_ctor_role env c.c_lhs with
    | Some Rdrain -> ({ f0 with st = State.Draining; scheduled = false }, true)
    | Some Rresume -> ({ f0 with st = State.Resuming }, false)
    | _ -> (f0, false)
  in
  let entry =
    match c.c_guard with Some g -> eval env entry g | None -> entry
  in
  let out = eval env entry c.c_rhs in
  if must_schedule && not out.scheduled then
    add_diag env.ctx env.u c.c_rhs.exp_loc "proto/missed-resume"
      "this drain-event handler can exit without scheduling a resume (an \
       abort path?); every path out of the drain window must re-enable the \
       operator";
  out

(* Lambda bodies run at some later time: the operator state resets to
   Running and obligations restart, but a dominating Plan_check and a
   paused-state guard at the construction site are inherited — the
   repo's closures execute where they are built (iteration idioms). *)
and lambda_cases env (f : flow) cases =
  List.iter
    (fun c -> ignore (case_walk env (entry_flow ~gated:f.gated ()) c))
    cases

and match_cases env (f : flow) scrut cases =
  let f0 = eval env f scrut in
  let results = List.map (fun c -> case_walk env f0 c) cases in
  match results with [] -> f0 | hd :: tl -> List.fold_left merge hd tl

and construct env (f : flow) (e : expression) cd =
  match Hashtbl.find_opt env.roles.ctors cd.cstr_name with
  | Some Rdrain ->
    if
      not (State.equal f.st State.Paused || State.equal f.st State.Bot)
    then
      add_diag env.ctx env.u e.exp_loc "proto/drain-without-pause"
        "drain event %s emitted while the operator state is %s, not Paused; \
         set the paused flag before opening the drain window"
        cd.cstr_name (State.to_string f.st);
    { f with st = State.transfer State.Drain f.st }
  | Some Rresume ->
    { f with st = State.transfer State.Schedule f.st; scheduled = true }
  | _ -> f

and apply env (f : flow) (e : expression) fn args =
  let f = eval env f fn in
  let f =
    List.fold_left
      (fun f (_, a) -> match a with Some a -> eval env f a | None -> f)
      f args
  in
  let comps = ident_comps fn in
  let pargs = pos_args args in
  if is_gate comps then { f with gated = true }
  else
    match (comps, pargs) with
    | [ "Array"; ("set" | "unsafe_set") ], arr :: _idx :: v :: _ -> (
      match target_role env arr with
      | Some Rpaused -> (
        match bool_lit v with
        | Some true -> { f with st = State.transfer State.Pause f.st }
        | Some false ->
          if State.equal f.st State.Running then
            add_diag env.ctx env.u e.exp_loc "proto/double-resume"
              "the paused flag is cleared while the operator is already \
               Running; resume must happen exactly once per drain window";
          { f with st = State.transfer State.Resume f.st }
        | None -> f)
      | Some Rassignment ->
        check_gated env f e.exp_loc "proto/ungated-mutation"
          "write to the deployed assignment";
        f
      | _ -> f)
    | [ "Array"; "blit" ], _src :: _spos :: dst :: _ -> (
      match target_role env dst with
      | Some Rassignment ->
        check_gated env f e.exp_loc "proto/ungated-mutation"
          "Array.blit into the deployed assignment";
        f
      | _ -> f)
    | [ "Queue"; ("add" | "push") ], _x :: q :: _ -> send env f e q
    | [ "Queue"; "transfer" ], _src :: dst :: _ -> send env f e dst
    | comps, _ when last2 comps = Some ("Plan", "make") ->
      check_gated env f e.exp_loc "proto/ungated-plan"
        "this Plan.make materialization of a deployable assignment";
      f
    | comps, _ when last2 comps = Some ("Rod_algorithm", "plan") ->
      (* [Rod_algorithm.plan] is [Plan.make] one call away. *)
      check_gated env f e.exp_loc "proto/ungated-plan"
        "this Rod_algorithm.plan materialization of a deployable assignment";
      f
    | _ -> f

and send env (f : flow) (e : expression) q =
  (match target_role env q with
  | Some Rinput_queue when not env.guarded ->
    add_diag env.ctx env.u e.exp_loc "proto/unguarded-send"
      "tuple delivered into an input queue on a path that never tests the \
       paused state; a paused operator must buffer, not receive"
  | _ -> ());
  f

and default_children env (f : flow) (e : expression) =
  let acc = ref f in
  let expr _it child = acc := eval env !acc child in
  let it = { Tast_iterator.default_iterator with expr } in
  Tast_iterator.default_iterator.expr it e;
  !acc

(* ---------- hatch validation (interprocedural) ---------- *)

let gate_called (d : Scan.def) =
  let found = ref false in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> if is_gate (Scan.canon_of_path p) then found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it d.Scan.body;
  !found

let validate_hatches ctx dindex (u : Scan.unit_info) (meta : meta) =
  Hashtbl.fold (fun _ h acc -> h :: acc) meta.hatches []
  |> List.sort (fun a b -> compare a.hline b.hline)
  |> List.iter (fun h ->
         if not h.used then
           add_line_diag ctx u h.hline "proto/unused-hatch"
             "this gated-by hatch suppresses nothing; remove it (stale \
              hatches hide future regressions)"
         else
           match Scan.resolve_defs dindex h.fn with
           | [] ->
             add_line_diag ctx u h.hline "proto/stale-gate"
               (Printf.sprintf
                  "gated-by names %s, which resolves to no known definition; \
                   name the function that performs the Plan_check gating"
                  h.fn)
           | defs ->
             if not (List.exists gate_called defs) then
               add_line_diag ctx u h.hline "proto/stale-gate"
                 (Printf.sprintf
                    "gated-by names %s, but that function no longer calls \
                     Plan_check; the justification is stale"
                    h.fn))

(* ---------- role sanity ---------- *)

let missing_role_checks ctx (u : Scan.unit_info) (meta : meta) (roles : roles)
    =
  List.iter
    (fun (ln, tok) ->
      add_line_diag ctx u ln "proto/missing-role"
        (Printf.sprintf "unknown role %S; valid roles: paused, pending, \
                         buffer, input-queue, deployed-assignment, \
                         drain-event, resume-event" tok))
    meta.bad_roles;
  List.iter
    (fun (ln, _) ->
      if not (Hashtbl.mem roles.bound_lines ln) then
        add_line_diag ctx u ln "proto/missing-role"
          "this role marker binds no declaration on its line; put it on the \
           line declaring the ident, constructor, or record label")
    meta.role_lines;
  if meta.protocol then begin
    let has r = List.exists (fun (_, r') -> r' = r) meta.role_lines in
    if has Rpaused && not (has Rdrain && has Rresume) then
      add_line_diag ctx u meta.protocol_line "proto/missing-role"
        "a paused role without both drain-event and resume-event roles: the \
         state machine cannot be tracked; declare the event constructors"
  end

(* ---------- orchestration ---------- *)

type proto_stats = {
  units_checked : int;
  defs_walked : int;
  roles_bound : int;
  hatches_used : int;
}

let check_units units =
  let units =
    List.sort (fun a b -> String.compare a.Scan.canon b.Scan.canon) units
  in
  let dindex = Scan.index_defs (Scan.defs_of_units units) in
  let ctx = { diags = []; hatches_used = 0 } in
  let checked = ref 0 and walked = ref 0 and roles_total = ref 0 in
  let metas = List.map (fun u -> (u, meta_of_unit u)) units in
  List.iter
    (fun ((u : Scan.unit_info), meta) ->
      if meta.protocol || meta.role_lines <> [] || meta.bad_roles <> [] then begin
        incr checked;
        let roles = bind_roles u meta in
        roles_total := !roles_total + roles.count;
        missing_role_checks ctx u meta roles;
        let env = { u; roles; meta; ctx; guarded = false } in
        List.iter
          (fun (d : Scan.def) ->
            incr walked;
            ignore (eval env (entry_flow ()) d.Scan.body))
          (Scan.defs_of_units [ u ])
      end)
    metas;
  List.iter (fun (u, meta) -> validate_hatches ctx dindex u meta) metas;
  let diags = List.sort_uniq Scan.compare_diag ctx.diags in
  ( diags,
    {
      units_checked = !checked;
      defs_walked = !walked;
      roles_bound = !roles_total;
      hatches_used = ctx.hatches_used;
    } )
