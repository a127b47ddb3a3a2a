(** The static-analysis driver behind [tools/rodcheck]: one load of a
    source tree, then the four passes over it, in this order —

    - [lint] ({!Lint}, SARIF tool [rodlint]): parse-tree rules over
      every [.ml] source;
    - [scan] ({!Scan}, [rodscan]): determinism taint, pool races and
      hot-loop allocation over the typedtrees;
    - [proto] ({!Proto}, [rodproto]): migration-protocol typestate and
      gated mutation;
    - [units] ({!Units}, [rodunits]): dimensional analysis.

    All passes share one allowlist, whose rule prefixes do not overlap
    across passes ([determinism/], [obs/], [hot/], [parse/] for lint;
    [det/], [race/], [alloc/] for scan; [proto/]; [units/]), so an entry
    that suppresses nothing in any pass is stale. *)

type source = {
  path : string;  (** Normalized ({!Allowlist.normalize_path}). *)
  text : string;
  comments : Comments.t;
}

type tree = {
  sources : source list;
      (** Every source file read, sorted by path: the [.ml] files under
          the roots (what lint checks) and the sources the [.cmt] files
          name. *)
  units : Scan.unit_info list;  (** The compiled units, from the [.cmt] files. *)
}

val source_of_string : path:string -> string -> source

val load : string list -> tree
(** Walk the roots for [.ml] files (skipping [_build] and
    dot-directories) and [.cmt] files (anywhere: dune keeps them under
    [.objs]).  Each source is read and its comments lexed once; lint and
    the units' markers share that read. *)

type outcome = {
  pass : string;  (** [lint], [scan], [proto] or [units]. *)
  tool : string;  (** SARIF tool name: [rodlint], [rodscan], ... *)
  rules : Sarif.rule list;
  kept : Lint.diag list;  (** Findings the allowlist does not suppress. *)
  suppressed : int;
  seconds : float;  (** Wall time of the pass, by the caller's clock. *)
}

type report = {
  files : int;  (** [.ml] sources linted. *)
  units : int;
  outcomes : outcome list;  (** One per pass, in pass order. *)
  stale : (string * string) list;  (** Allowlist entries no pass used. *)
}

val run : clock:(unit -> float) -> Allowlist.t -> tree -> report
(** Run every pass and split its findings against the allowlist. *)

val failed : report -> bool
(** A finding kept, or a stale allowlist entry. *)

val summary : report -> string
(** One line: per-pass findings, suppressed counts and wall time. *)

val sarif : report -> Sarif.run list
(** One run per pass, holding its kept findings. *)

type fixture = {
  file : string;
  expected : string list;
      (** Sorted rule ids from the file's [rodscan-expect:],
          [rodproto-expect:] and [rodunits-expect:] comments. *)
  got : string list;  (** Sorted rule ids the passes report for it. *)
  findings : Lint.diag list;
}

val fixtures : tree -> fixture list
(** The self-test: run the passes that read expect markers (scan,
    proto, units) over the tree as one unit set, and pair each unit
    whose source was loaded with the rules it declares and the rules
    reported against it (an interface's findings count for its
    [.ml]), sorted by file. *)

val fixture_ok : fixture -> bool

val render_fixture : fixture -> string
(** ["fixture ok: ..."], or ["fixture FAIL: ..."] followed by the
    findings, one per line. *)
