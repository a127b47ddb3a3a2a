(** [rodproto]: typestate verification of the pause–drain–resume live
    migration protocol and a gated-mutation analysis over deployed
    assignments, the third typedtree analyzer next to {!Lint} and
    {!Scan}.

    Modules opt in with a [(* rodproto: protocol *)] marker and name
    their protocol state with role comments on the declaring line:

    {v
    let migrating = Array.make m false (* rodproto: role paused *)
    type event =
      | Handoff of int        (* rodproto: role drain-event *)
      | Migration_done of int (* rodproto: role resume-event *)
    v}

    Roles: [paused] (the per-operator pause flags), [pending],
    [buffer], [input-queue] (per-node delivery queues), and
    [deployed-assignment] (the engine-visible operator->node map) bind
    idents and record labels; [drain-event] and [resume-event] bind
    variant constructors.

    {b Protocol typestate} ([protocol-typestate] pass): every function
    body is walked path-sensitively over the per-operator lattice
    {!State.t} (Bot < Running | Paused | Draining | Resuming < Top).
    Setting a [paused] flag true is a pause; constructing a
    [drain-event] is the drain; constructing a [resume-event] schedules
    the resume; setting [paused] false is the resume itself.  Handler
    cases matching a [drain-event] constructor start in [Draining] and
    must schedule a resume on {e every} path out (branch merges AND the
    obligation — the abort path is exactly where this catches bugs);
    cases matching a [resume-event] start in [Resuming].  Rules:
    [proto/drain-without-pause], [proto/double-resume],
    [proto/missed-resume], [proto/unguarded-send] (a [Queue.add]/
    [push]/[transfer] into an [input-queue] not dominated by a test
    mentioning the [paused] state), and [proto/missing-role] (a
    [paused] role without both event roles — the machine cannot be
    tracked).

    {b Gated mutation} ([gated-mutation] pass): any write to
    [deployed-assignment] state ([Array.set], [Array.blit] destination,
    mutable-field assignment) and any [Plan.make] materialization
    (directly or through [Rod_algorithm.plan]) in a protocol-marked
    unit must be dominated by a [Plan_check] gate
    ([assert_ok]/[check_graph]/[check_model]/[check_matrix]) on the
    same path, or carry a justification hatch on the same or preceding
    line:

    {v assignment.(op) <- dest (* rodproto: gated-by Deploy.finish *) v}

    A hatch names the function that performed the gating; it is
    resolved interprocedurally through {!Scan.resolve_defs} and must
    itself call [Plan_check] directly — a hatch naming an unknown or
    no-longer-gating function fails ([proto/stale-gate]), and a hatch
    that suppresses nothing fails ([proto/unused-hatch]), mirroring
    allowlist semantics.  Ungated writes are
    [proto/ungated-mutation]; ungated [Plan.make] and
    [Rod_algorithm.plan] calls are [proto/ungated-plan].

    Markers and hatches count only inside comments ({!Comments}).
    Findings reuse {!Lint.diag}; allowlist filtering is {!Check}'s. *)

val protocol_marker : string
(** ["rodproto: protocol"] — opts a module into both passes. *)

val role_marker : string
(** ["rodproto: role "] — binds the declarations on its line to a
    protocol role. *)

val gated_by_marker : string
(** ["rodproto: gated-by "] — per-site mutation justification naming
    the gating function. *)

val expect_marker : string
(** ["rodproto-expect:"] — declares a fixture's expected rule ids. *)

val rules : (string * string) list
(** [(rule id, short description)] catalogue, for SARIF and docs. *)

val sarif_rules : Sarif.rule list
(** [rules] lifted to SARIF rule metadata (DESIGN.md §13 help URI). *)

(** The per-operator typestate lattice.  [join] is commutative,
    associative and idempotent with [Bot] as unit and [Top] absorbing;
    [transfer] is monotone and sub-distributes over [join] (it does
    {e not} distribute: joining [Resuming] with [Paused] first loses
    which resume is legal).  All QCheck-pinned. *)
module State : sig
  type t = Bot | Running | Paused | Draining | Resuming | Top
  type event = Pause | Drain | Schedule | Resume

  val all : t list
  val events : event list
  val equal : t -> t -> bool
  val join : t -> t -> t
  val leq : t -> t -> bool
  val transfer : event -> t -> t
  val to_string : t -> string
  val event_to_string : event -> string
end

type proto_stats = {
  units_checked : int;  (** Units carrying the protocol marker or roles. *)
  defs_walked : int;
  roles_bound : int;  (** Idents + constructors + labels given a role. *)
  hatches_used : int;
}

val relevant : Scan.unit_info -> bool
(** Does this unit opt into rodproto (protocol marker or any role)? *)

val check_units : Scan.unit_info list -> Lint.diag list * proto_stats
(** Run both passes over the units {e together} — hatch resolution is
    interprocedural across units, so the gating functions' defining
    units should be in the list.  Diagnostics are sorted with
    {!Scan.compare_diag} and deduplicated. *)
