type source = { path : string; text : string; comments : Comments.t }
type tree = { sources : source list; units : Scan.unit_info list }

let source_of_string ~path text =
  { path = Allowlist.normalize_path path; text; comments = Comments.of_string text }

let is_ml s = Filename.check_suffix s.path ".ml"

let load roots =
  let read_sources = Hashtbl.create 256 in
  let read path =
    let key = Allowlist.normalize_path path in
    match Hashtbl.find_opt read_sources key with
    | Some s -> Some s
    | None when Sys.file_exists path ->
      let s = source_of_string ~path (Allowlist.read_file path) in
      Hashtbl.replace read_sources key s;
      Some s
    | None -> None
  in
  (* Lint sees only the sources a reader would call the tree's own;
     the cmts live in dune's hidden [.objs] directories. *)
  let rec walk ~visible (mls, cmts) path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.fold_left
           (fun acc entry ->
             let visible =
               visible && entry <> "_build" && entry <> "" && entry.[0] <> '.'
             in
             walk ~visible acc (Filename.concat path entry))
           (mls, cmts)
    else if Filename.check_suffix path ".cmt" then (mls, path :: cmts)
    else if visible && Filename.check_suffix path ".ml" then (path :: mls, cmts)
    else (mls, cmts)
  in
  let mls, cmts = List.fold_left (walk ~visible:true) ([], []) roots in
  List.iter (fun p -> ignore (read p)) mls;
  let units =
    List.sort_uniq String.compare cmts
    |> List.filter_map
         (Scan.unit_of_cmt ~read:(fun p ->
              match read p with Some s -> s.comments | None -> Comments.empty))
  in
  let sources =
    Hashtbl.fold (fun _ s acc -> s :: acc) read_sources []
    |> List.sort (fun a b -> String.compare a.path b.path)
  in
  { sources; units }

(* ---------- the passes ---------- *)

type pass = {
  name : string;
  tool : string;
  rules : Sarif.rule list;
  expect : string option;  (* the fixture expect marker, if any *)
  check : tree -> Lint.diag list;
}

let lint tree =
  List.concat_map
    (fun s ->
      if is_ml s then
        Lint.lint_string ~filename:s.path s.text
          ~hot:(Comments.mem s.comments Lint.hot_marker)
          ~obs:(Comments.mem s.comments Lint.obs_marker)
      else [])
    tree.sources

let passes =
  [
    { name = "lint"; tool = "rodlint"; rules = []; expect = None; check = lint };
    {
      name = "scan";
      tool = "rodscan";
      rules = Scan.sarif_rules;
      expect = Some Scan.expect_marker;
      check = (fun t -> fst (Scan.scan_units t.units));
    };
    {
      name = "proto";
      tool = "rodproto";
      rules = Proto.sarif_rules;
      expect = Some Proto.expect_marker;
      check = (fun t -> fst (Proto.check_units t.units));
    };
    {
      name = "units";
      tool = "rodunits";
      rules = Units.sarif_rules;
      expect = Some Units.expect_marker;
      check = (fun t -> fst (Units.check_units t.units));
    };
  ]

(* ---------- the gate ---------- *)

type outcome = {
  pass : string;
  tool : string;
  rules : Sarif.rule list;
  kept : Lint.diag list;
  suppressed : int;
  seconds : float;
}

type report = {
  files : int;
  units : int;
  outcomes : outcome list;
  stale : (string * string) list;
}

let run ~clock allow tree =
  let outcomes =
    List.map
      (fun (p : pass) ->
        let start = clock () in
        let kept, suppressed =
          Allowlist.split
            ~file:(fun (d : Lint.diag) -> d.file)
            ~rule:(fun (d : Lint.diag) -> d.rule)
            allow (p.check tree)
        in
        {
          pass = p.name;
          tool = p.tool;
          rules = p.rules;
          kept;
          suppressed = List.length suppressed;
          seconds = clock () -. start;
        })
      passes
  in
  {
    files = List.length (List.filter is_ml tree.sources);
    units = List.length tree.units;
    outcomes;
    stale = Allowlist.unused allow;
  }

let failed r = r.stale <> [] || List.exists (fun o -> o.kept <> []) r.outcomes

let summary r =
  Printf.sprintf "rodcheck: %d files, %d units | %s | %d stale allow entries%s"
    r.files r.units
    (String.concat " | "
       (List.map
          (fun o ->
            Printf.sprintf "%s %d findings, %d suppressed, %.2fs" o.pass
              (List.length o.kept) o.suppressed o.seconds)
          r.outcomes))
    (List.length r.stale)
    (if failed r then " — FAILED" else "")

let sarif r =
  List.map
    (fun o ->
      {
        Sarif.tool = o.tool;
        rules = o.rules;
        results =
          List.map
            (fun (d : Lint.diag) ->
              {
                Sarif.rule_id = d.rule;
                level = "error";
                message = d.message;
                file = Some d.file;
                line = Some d.line;
                col = Some d.col;
              })
            o.kept;
      })
    r.outcomes

(* ---------- the fixture self-test ---------- *)

type fixture = {
  file : string;
  expected : string list;
  got : string list;
  findings : Lint.diag list;
}

let ml_of file =
  if Filename.check_suffix file ".mli" then Filename.chop_suffix file "i"
  else file

let fixtures tree =
  let markers = List.filter_map (fun (p : pass) -> p.expect) passes in
  let diags =
    List.concat_map
      (fun (p : pass) -> if p.expect = None then [] else p.check tree)
      passes
  in
  let loaded = List.map (fun s -> s.path) tree.sources in
  List.filter (fun (u : Scan.unit_info) -> List.mem u.source loaded) tree.units
  |> List.sort (fun (a : Scan.unit_info) b -> String.compare a.source b.source)
  |> List.map (fun (u : Scan.unit_info) ->
         let findings =
           List.filter (fun (d : Lint.diag) -> ml_of d.file = u.source) diags
         in
         {
           file = u.source;
           expected =
             List.concat_map
               (fun m ->
                 List.concat_map
                   (fun (h : Comments.hit) -> Comments.words h.rest)
                   (Comments.find u.comments m))
               markers
             |> List.sort_uniq String.compare;
           got =
             List.map (fun (d : Lint.diag) -> d.rule) findings
             |> List.sort_uniq String.compare;
           findings;
         })

let fixture_ok f = f.expected = f.got

let render_fixture f =
  if fixture_ok f then
    Printf.sprintf "fixture ok: %s%s" f.file
      (if f.expected = [] then " (conforming)"
       else Printf.sprintf " (rejected: %s)" (String.concat ", " f.expected))
  else
    String.concat "\n"
      (Printf.sprintf "fixture FAIL: %s expected {%s} got {%s}" f.file
         (String.concat ", " f.expected)
         (String.concat ", " f.got)
      :: List.map (fun d -> "  " ^ Lint.render d) f.findings)
