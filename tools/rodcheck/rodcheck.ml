(* rodcheck [--allow FILE] [--fix] [--sarif PATH] ROOT...
   rodcheck --fixtures DIR

   Runs the four static-analysis passes (lint, scan, proto, units; see
   Analysis.Check) over the sources and .cmt files under the roots.
   Under dune that means running inside _build/default, where the cmts
   (.objs/byte) sit next to the source copies.

   Prints every kept finding and stale allowlist entry, then a summary
   line with per-pass counts and wall time, and exits 1 when anything
   is kept or stale.  --sarif writes the kept findings first, one SARIF
   run per pass, so a failing run still leaves its report.  --fix
   prints the allowlist with its stale entries dropped to stdout
   instead (findings move to stderr).  --fixtures runs the self-test:
   every compiled fixture under DIR must be rejected with exactly the
   rules its expect comments declare. *)

let usage =
  "usage: rodcheck [--allow FILE] [--fix] [--sarif PATH] ROOT...\n\
  \       rodcheck --fixtures DIR"

let fail_usage () =
  prerr_endline usage;
  exit 2

let run_fixtures dir =
  let fixtures = Analysis.Check.fixtures (Analysis.Check.load [ dir ]) in
  List.iter
    (fun f -> print_endline (Analysis.Check.render_fixture f))
    fixtures;
  let failures =
    List.length (List.filter (fun f -> not (Analysis.Check.fixture_ok f)) fixtures)
  in
  Printf.printf "rodcheck fixtures: %d checked, %d failed\n"
    (List.length fixtures) failures;
  if failures > 0 || fixtures = [] then exit 1

let () =
  let allow_file = ref None
  and fix = ref false
  and sarif = ref None
  and fixtures = ref None
  and roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allow" :: file :: rest ->
      allow_file := Some file;
      parse rest
    | "--fix" :: rest ->
      fix := true;
      parse rest
    | "--sarif" :: path :: rest ->
      sarif := Some path;
      parse rest
    | "--fixtures" :: dir :: rest ->
      fixtures := Some dir;
      parse rest
    | ("--help" | "-help") :: _ ->
      print_endline usage;
      exit 0
    | arg :: _ when String.starts_with ~prefix:"-" arg -> fail_usage ()
    | root :: rest ->
      roots := root :: !roots;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  List.iter
    (fun path ->
      if not (Sys.file_exists path) then begin
        Printf.eprintf "rodcheck: %s: no such file or directory\n" path;
        exit 2
      end)
    (Option.to_list !fixtures @ !roots);
  match (!fixtures, List.rev !roots) with
  | Some dir, [] -> run_fixtures dir
  | Some _, _ :: _ | None, [] -> fail_usage ()
  | None, roots ->
    let allowlist =
      Analysis.Allowlist.load_or_exit ~tool:"rodcheck" !allow_file
    in
    let report =
      Analysis.Check.run ~clock:Unix.gettimeofday allowlist
        (Analysis.Check.load roots)
    in
    Option.iter
      (fun path -> Analysis.Sarif.write ~path (Analysis.Check.sarif report))
      !sarif;
    let rendered =
      List.concat_map
        (fun (o : Analysis.Check.outcome) ->
          List.map Analysis.Lint.render o.kept)
        report.outcomes
    in
    if !fix then
      Analysis.Allowlist.fix_exit ~tool:"rodcheck" ~allow_file:!allow_file
        allowlist ~rendered_kept:rendered;
    List.iter print_endline rendered;
    Analysis.Allowlist.print_stale allowlist;
    print_endline (Analysis.Check.summary report);
    if Analysis.Check.failed report then exit 1
