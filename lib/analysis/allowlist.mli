(** The allow-file machinery behind [tools/rodcheck], shared by its
    four passes.

    One entry per line, [<path-suffix> <rule-prefix> # justification]; a
    finding is suppressed when some entry's path is a suffix of the
    finding's (normalized) path and its rule a prefix of the finding's
    rule.  Entries that suppress nothing are stale — the driver fails
    on them and prunes them under [--fix] — so an allowlist cannot rot.

    The module is deliberately finding-type-agnostic: matching works on
    [(file, rule)] strings, and {!split} is parameterized by projection
    functions, so {!Lint.diag} and any future finding record both fit. *)

type t
(** A loaded allowlist; entries carry a mutable used-bit set by
    {!allows} / {!split}. *)

val empty : t

val of_string : source:string -> string -> t
(** Parse allowlist text: one [<path> <rule> # justification] entry per
    line; blank lines and [#]-leading comment lines ignored.
    @raise Failure listing {e every} malformed line (with [source] and
    line numbers), one per output line, so a broken file costs one run
    to fix. *)

val load : string -> t
(** {!of_string} over a file's contents, [source] = the path. *)

val load_or_exit : tool:string -> string option -> t
(** Driver entry point: [None] is {!empty}; [Some file] is {!load},
    printing the aggregated malformed-line failure to stderr and
    exiting 2 on a broken file. *)

val normalize_path : string -> string
(** Strip leading [./] and [_build/default/] decorations (repeatedly,
    in any order) so the same file matches the same allowlist entry
    under [dune build @lint], a direct [rodcheck ./lib] run, and a
    build-tree invocation. *)

val allows : t -> file:string -> rule:string -> bool
(** Does some entry suppress a finding at [(file, rule)]?  Marks the
    first matching entry used. *)

val split : file:('a -> string) -> rule:('a -> string) -> t -> 'a list -> 'a list * 'a list
(** [(kept, suppressed)] over any finding type, given projections. *)

val unused : t -> (string * string) list
(** Entries that suppressed nothing since loading, as
    [(path, rule)] pairs — stale allowlist hygiene. *)

val prune : t -> string -> string
(** [prune t text] returns [text] (the allowlist file's raw contents)
    with the source line of every {e unused} entry removed and
    everything else untouched.  Backs the driver's [--fix] flag; call
    after {!split} so live entries are marked used. *)

val read_file : string -> string

val fix_exit : tool:string -> allow_file:string option -> t -> rendered_kept:string list -> 'a
(** The driver's [--fix] mode: requires [allow_file] (exit 2
    otherwise); prints the pruned allowlist to stdout (so the caller
    can redirect it over the stale file), the kept findings and the
    pruned-entry notes to stderr; exits 1 when findings remain, else
    0.  Never returns. *)

val print_stale : t -> unit
(** One ["stale allowlist entry: <path> <rule> (suppresses nothing)"]
    line per unused entry, to stdout — the non-[--fix] report. *)
