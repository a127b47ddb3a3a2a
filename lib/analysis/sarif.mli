(** Minimal SARIF 2.1.0 emitter, shared by [tools/rodcheck] and
    [rod_cli analyze --sarif] so both static-analysis surfaces speak
    the same machine-readable format: one document, one [run] per
    analysis tool, one [result] per finding. *)

type result = {
  rule_id : string;  (** Stable rule id, e.g. ["det/taint"]. *)
  level : string;  (** SARIF level: ["error"], ["warning"] or ["note"]. *)
  message : string;
  file : string option;  (** Artifact URI; omitted when [None]. *)
  line : int option;  (** 1-based start line. *)
  col : int option;  (** 0-based compiler column; emitted +1. *)
}

type rule = {
  id : string;  (** Stable rule id, e.g. ["det/taint"]. *)
  short_desc : string;  (** One-line description; [""] omits it. *)
  help_uri : string;
      (** Documentation link (a [DESIGN.md] anchor); [""] omits it. *)
}
(** Entry of a run's rule table ([tool.driver.rules]), so
    code-scanning UIs can link findings back to the rule catalogue. *)

type run = {
  tool : string;  (** [tool.driver.name]. *)
  rules : rule list;  (** [[]] omits the rule table. *)
  results : result list;
}

val rule : ?help_uri:string -> string -> string -> rule
(** [rule ?help_uri id short_desc]. *)

val rules_of_catalogue : help_uri:string -> (string * string) list -> rule list
(** Lift an [(id, description)] rule catalogue (the shape [Scan.rules]
    and [Proto.rules] export) into SARIF rule metadata sharing one
    documentation anchor. *)

val to_string : run list -> string
(** Render one SARIF document holding [runs] in order. *)

val write : path:string -> run list -> unit
