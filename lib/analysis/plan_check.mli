(** Static analysis of query plans and load models: reject statically
    doomed plans before any placement or simulation runs.

    The checks operate on the operator load-coefficient matrix [L^o]
    ([m] operators by [d] rate variables) and the node capacity vector
    [C], the same objects {!Rod.Problem} optimizes over:

    - {b well-formedness} (errors): NaN/infinite or negative
      coefficients, non-positive or NaN capacities, an empty cluster,
      a dimension mismatch against the expected variable count, more
      rate variables than QMC sampling supports
      ({!Feasible.Halton.max_dim});
    - {b structural} (warnings): a variable carrying no load anywhere
      (the feasible set is unbounded along it — {!Rod.Problem.create}
      rejects such instances), an operator whose load row is all zero
      (dead weight in the model), an operator all of whose inputs are
      streams with statically-zero rate (starved);
    - {b feasibility} (error): an operator with [l^o_jk > max_i C_i]
      on some axis cannot sustain even unit rate on variable [k] on
      {e any} node, so every placement's feasible set is clipped below
      the unit-rate point regardless of assignment;
    - {b resiliency} (warning): a per-axis upper bound on the
      achievable feasible-set ratio.  Since every operator must fit on
      a single node, the feasible set of {e any} assignment lies inside
      [{ r : r_k <= e_k }] with [e_k = min_j max_i C_i / l^o_jk], while
      the ideal simplex of Theorem 1 extends to [E_k = C_T / l_k] along
      axis [k].  Truncating the ideal simplex at [r_k = e_k] removes a
      similar simplex scaled by [1 - e_k / E_k], so for every
      assignment [A]:
      [vol(F(A)) / vol(ideal) <= 1 - (1 - min(1, e_k / E_k))^d].
      When a single heavy operator drives that bound below a threshold
      (default 0.5) on some axis, no amount of placement cleverness can
      recover MMAD resiliency — the model itself caps it. *)

type severity =
  | Error  (** The plan is statically broken; reject it. *)
  | Warning  (** Suspicious but deployable. *)

type diag = {
  severity : severity;
  code : string;  (** Stable machine-readable id, e.g. ["infeasible-operator"]. *)
  message : string;
}

type report = {
  diags : diag list;  (** In emission order (errors and warnings mixed). *)
  axis_bound : float array;
      (** Per-variable Theorem-1 upper bound on the achievable
          feasible-set ratio (all-ones when no operator loads an axis,
          empty when the matrix was too malformed to bound). *)
}

val rules : (string * string) list
(** [(code, short description)] catalogue of every diagnostic this
    module can emit, for SARIF and docs. *)

val sarif_rules : Sarif.rule list
(** [rules] lifted to SARIF rule metadata (DESIGN.md §8 help URI). *)

val errors : report -> diag list

val warnings : report -> diag list

val ok : report -> bool
(** No errors (warnings allowed). *)

val check_matrix :
  ?threshold:float ->
  ?expect_vars:int ->
  ?op_name:(int -> string) ->
  ?var_name:(int -> string) ->
  lo:Linalg.Mat.t ->
  caps:Linalg.Vec.t ->
  unit ->
  report
(** Core analyzer over a raw load matrix.  [threshold] is the
    resiliency-warning cutoff (default 0.5); [expect_vars] adds a
    dimension check against an externally known variable count. *)

val check_model : ?threshold:float -> Query.Load_model.t -> caps:Linalg.Vec.t -> report
(** {!check_matrix} over a derived load model, plus the graph-aware
    checks (named operators/variables, starved operators). *)

val check_graph : ?threshold:float -> Query.Graph.t -> caps:Linalg.Vec.t -> report
(** Derive the load model, then {!check_model}. *)

val assert_ok : ?what:string -> report -> unit
(** @raise Invalid_argument listing every error when [ok] is false. *)

val pp : Format.formatter -> report -> unit
(** Human rendering: one line per diagnostic plus the per-axis bounds. *)

val to_json : report -> string
(** Machine rendering ([rod-plan-check/1] schema). *)
