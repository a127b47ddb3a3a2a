(** Budgeted replanning: repair a placement under a migration budget.

    A replan is not a fresh placement — migrating an operator costs a
    pause proportional to its live state ({!Statesize}), so the online
    question is {e which few moves buy the most resilience}.  This
    module runs a greedy move-ranked variant of {!Rod.Local_search}
    limited to [budget] relocations, in two phases over the shared
    incremental scorer:

    + {b margin repair} (only when [rates] are supplied and the
      placement is infeasible at them): repeatedly move an operator off
      the most-utilized node so as to minimize the resulting maximum
      node utilization — the fastest way back inside the feasible set;
    + {b volume polish}: greedy single-operator relocations ranked by
      [feasibility gain / (1 + cost_of op)], so a stateless filter
      migrates before an equally-helpful windowed join.

    The result is gated: a replan is [accepted] only if the modeled
    feasible-set ratio did not decrease {e and} (when [rates] are
    given) the margin did not decrease.  If the two-phase attempt fails
    the gate, a volume-only attempt from the original assignment is
    tried (its moves all have strictly positive gain, so its ratio can
    only grow); if that fails too the original assignment is returned
    unchanged with [accepted = false].

    Determinism: the scorer primitives are bit-identical across pool
    sizes, ties are broken first-found (lowest operator, then lowest
    node), and no randomness is consulted — the same inputs produce the
    same outcome for every pool size and on every rerun. *)

type move = {
  op : int;
  from_node : int;
  to_node : int;
  gain : int;  (** Feasible-sample delta of this move when applied. *)
  cost : float; (* rodunits: sim-sec *)
      (** State-transfer seconds, [cost_of op]. *)
}

type outcome = {
  accepted : bool;
  moves : move list;
      (** In application order; [[]] when rejected.  The outcome holds
          no assignment: replaying the moves on a copy of the input,
          [List.iter (fun mv -> a.(mv.op) <- mv.to_node) moves], gives
          the replanned one ([Deploy.replan] and {!Controller} apply
          them so).  A rejected replan leaves the input as it was. *)
  ratio_before : float; (* rodunits: 1 *)
      (** Feasible QMC ratio of the input placement. *)
  ratio_after : float; (* rodunits: 1 *)
      (** Ratio of the replanned assignment on the same sample. *)
  margin_before : Margin.t option;  (** Present iff [rates] was given. *)
  margin_after : Margin.t option;
  samples : int;  (** Shared QMC sample size the ratios are measured on. *)
  cost : float; (* rodunits: sim-sec *)
      (** Total state-transfer seconds of [moves]. *)
}

val replan :
  ?pool:Parallel.Pool.t ->
  ?samples:int ->
  ?rates:Linalg.Vec.t ->
  budget:int ->
  cost_of:(int -> float) ->
  Rod.Problem.t ->
  assignment:int array ->
  outcome
(** [replan ~budget ~cost_of problem ~assignment] proposes at most
    [budget] relocations (default 2048 samples, global pool).  [rates]
    — the observed rate point, in the problem's variable space —
    enables the margin-repair phase and the margin acceptance gate.
    The input assignment is not mutated.  Raises [Invalid_argument] on
    a malformed assignment, negative budget, nonpositive sample count,
    or rates of the wrong dimension. *)

val repair_margin :
  Rod.Problem.t ->
  Rod.Local_search.scorer ->
  assignment:int array ->
  rates:Linalg.Vec.t ->
  cost_of:(int -> float) ->
  int ->
  int * move list
(** The margin-repair phase alone, exposed for the equivalence suite:
    [repair_margin problem scorer ~assignment ~rates ~cost_of budget]
    applies its moves to [assignment] and to [scorer] (which must read
    that array) and returns the unspent budget with the moves in
    application order.  Each step is [O(m * d + hot_ops * n)]. *)
