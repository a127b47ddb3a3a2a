(* The allow-file machinery behind rodcheck: parse, normalize, stale
   detection and pruning, defined once for every pass. *)

type entry = {
  path_suffix : string;
  rule_prefix : string;
  line : int;
  mutable used : bool;
}

type t = entry list

let empty = []

(* Malformed lines are collected and reported together: an allowlist
   with three typos should cost one run to fix, not three. *)
let of_string ~source text =
  let entries = ref [] in
  let malformed = ref [] in
  String.split_on_char '\n' text
  |> List.iteri (fun idx line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         match
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun t -> t <> "")
         with
         | [] -> ()
         | [ path_suffix; rule_prefix ] ->
           entries :=
             { path_suffix; rule_prefix; line = idx + 1; used = false }
             :: !entries
         | _ ->
           malformed :=
             Printf.sprintf
               "%s:%d: malformed allowlist entry (want: <path> <rule> # why)"
               source (idx + 1)
             :: !malformed);
  if !malformed <> [] then failwith (String.concat "\n" (List.rev !malformed));
  List.rev !entries

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = of_string ~source:path (read_file path)

let load_or_exit ~tool = function
  | None -> empty
  | Some file -> (
    try load file
    with Failure msg ->
      Printf.eprintf "%s: %s\n" tool msg;
      exit 2)

let suffix_matches ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  lx <= ls && String.sub s (ls - lx) lx = suffix

let prefix_matches ~prefix s =
  let ls = String.length s and lx = String.length prefix in
  lx <= ls && String.sub s 0 lx = prefix

(* Paths reach the allowlist from two spellings of the same file:
   [dune build @lint] hands the linter build-relative paths
   ([lib/x.ml], or [_build/default/lib/x.ml] when someone points it at
   the build tree), while a direct [rodcheck ./lib] invocation
   produces [./lib/x.ml].  Strip both decorations before matching so an
   entry written one way cannot silently stop matching the other. *)
let normalize_path p =
  let strip prefix s =
    if prefix_matches ~prefix s then
      Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
    else None
  in
  let rec go s =
    match strip "./" s with
    | Some s -> go s
    | None -> (
      match strip "_build/default/" s with Some s -> go s | None -> s)
  in
  go p

let matches entry ~file ~rule =
  suffix_matches ~suffix:(normalize_path entry.path_suffix) (normalize_path file)
  && prefix_matches ~prefix:entry.rule_prefix rule

let allows t ~file ~rule =
  List.exists
    (fun entry ->
      if matches entry ~file ~rule then begin
        entry.used <- true;
        true
      end
      else false)
    t

let split ~file ~rule t findings =
  List.partition (fun d -> not (allows t ~file:(file d) ~rule:(rule d))) findings

let unused t =
  List.filter_map
    (fun e -> if e.used then None else Some (e.path_suffix, e.rule_prefix))
    t

(* Drop the source lines of unused entries, preserving everything else
   byte-for-byte (comments, blank lines, entry justifications).  Call
   after [split] has marked live entries as used. *)
let prune t text =
  let stale = List.filter_map (fun e -> if e.used then None else Some e.line) t in
  String.split_on_char '\n' text
  |> List.filteri (fun i _ -> not (List.mem (i + 1) stale))
  |> String.concat "\n"

let fix_exit ~tool ~allow_file t ~rendered_kept =
  match allow_file with
  | None ->
    Printf.eprintf "%s: --fix requires --allow FILE\n" tool;
    exit 2
  | Some file ->
    (* Pruned allowlist to stdout (so the caller can redirect it over
       the stale file); diagnostics to stderr. *)
    print_string (prune t (read_file file));
    List.iter prerr_endline rendered_kept;
    List.iter
      (fun (path, rule) ->
        Printf.eprintf "pruned stale allowlist entry: %s %s\n" path rule)
      (unused t);
    exit (if rendered_kept <> [] then 1 else 0)

let print_stale t =
  List.iter
    (fun (path, rule) ->
      Printf.printf "stale allowlist entry: %s %s (suppresses nothing)\n" path
        rule)
    (unused t)
