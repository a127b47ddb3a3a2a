(** Plan polishing by hill climbing on the feasible-set objective.

    ROD is greedy and leaves a few percent of feasible volume on the
    table (TBLOPT measures ~5% against the exhaustive optimum).  This
    module climbs from any starting assignment using single-operator
    relocations plus pairwise exchanges (which escape most single-move
    local optima), scoring candidates on a shared quasi-Monte Carlo
    sample so comparisons are exact and incremental (the same machinery
    as {!Optimal}).  It turns ROD into an anytime algorithm: the paper
    suggests resilient placement as a good {e initial} plan, and this is
    the natural refinement step.

    Candidate evaluation is {e read-only and fused}: a relocation sweep
    scores all [n] targets of an operator in one pass over the sample
    dimension via {!relocation_gains} (one pool dispatch per operator,
    not one per candidate), and swap sweeps run against a per-operator
    batch whose candidate-sample list is pruned by the per-sample
    violation counts.  The scorer state is only written when a move is
    actually applied ({!move}).  A sample with [v] saturated nodes can
    change feasibility only if [v <= 1] under a relocation or [v <= 2]
    under a swap (load contributions are nonnegative by the
    {!Problem.t} invariants), which is what the skip index exploits.

    Complexity: building the scorer is [O(m * d + n * samples * d)]:
    each node's load vector [L_i] is summed once from its operators'
    rows, and a node's load on a sample is one [d]-term dot of [L_i]
    with the QMC point.  A relocation sweep is
    [O(m * (samples + active * n))] where [active] counts samples with
    [v <= 1]; swap sweeps are [O(m * samples + m^2 * candidates)] with
    [candidates] the usually tiny per-batch gain-candidate list, and run
    only when relocations are exhausted.  Each sweep's [samples] term
    carries a factor [d]: an operator's load on a sample is recomputed
    from the point block as a [d]-term dot wherever a kernel needs it.
    The search ends after a pass that finds no improving move.

    Memory: [O(n * samples + samples * d)] for the scorer, independent
    of [m] beyond the assignment itself. *)

type outcome = {
  assignment : int array;
  ratio : float; (* rodunits: 1 *)
      (** Feasible fraction of the shared QMC sample. *)
  moves : int;  (** Accepted moves. *)
  passes : int;  (** Full sweeps performed (including the final, quiet one). *)
}

(** {1 Incremental scorer}

    The shared-sample scoring state: the QMC point block, per-node
    accumulated loads, per-sample violation counts and the running
    feasible total.  Exposed so equivalence
    tests (and future replanners) can drive the primitives directly. *)

type scorer

val make_scorer :
  ?pool:Parallel.Pool.t -> Problem.t -> int array -> int -> scorer
(** [make_scorer problem assignment samples] builds the scorer for the
    given starting assignment.  The array is {e shared}, not copied:
    the scorer reads it to resolve an operator's current node, so a
    caller applying {!move} must update the same array accordingly
    ({!improve} does).  It sums each node's load vector
    [L_i = sum of lo_j over the operators on i] in ascending [j] (as
    {!Plan.node_loads} does), then one fused pass generates the
    [samples x d] QMC point block, which the scorer keeps, and sets
    each node's load on each sample to the left-to-right dot of [L_i]
    with the point: [O(m * d + n * samples * d)].  No per-operator
    contribution table is built; every kernel recomputes an operator's
    contribution where it needs one.  Defaults to the global pool.
    Raises [Invalid_argument] when [samples <= 0]. *)

val feasible : scorer -> int
(** Number of feasible samples under the current state. *)

val n_samples : scorer -> int

val move : scorer -> int -> from_node:int -> to_node:int -> unit
(** Apply operator [j]'s relocation, updating node loads, violation
    counts and the feasible total incrementally (two shifts, sharded
    over the pool; exact integer reduction). *)

val gain : scorer -> int -> to_node:int -> int
(** [gain scorer j ~to_node] is the feasibility delta a
    [move scorer j ~from_node:(current) ~to_node] would produce —
    bit-identical to performing the move and subtracting the feasible
    counts — computed without writing any scorer state.  [0] when
    [to_node] is [j]'s current node. *)

val swap_gain : scorer -> int -> int -> int
(** [swap_gain scorer j1 j2] is the feasibility delta of exchanging the
    two operators between their nodes (the four-shift sequence of the
    swap sweep), read-only.  Raises [Invalid_argument] when they share
    a node. *)

val relocation_gains : scorer -> int -> int array
(** Fused kernel: [gain scorer j ~to_node:i] for every node [i] in one
    pass over the samples ([0] at [j]'s current node).  The returned
    array is scorer-owned scratch, valid until the next call. *)

val relocation_positive_bound : scorer -> int -> int
(** Upper bound on [Array.fold_left max 0 (relocation_gains scorer j)]:
    the number of samples whose feasibility could possibly flip to
    feasible under any relocation of [j].  [0] proves no improving
    target exists, letting sweeps skip the kernel entirely. *)

(** {1 Search} *)

val improve :
  ?pool:Parallel.Pool.t ->
  ?samples:int ->
  ?max_passes:int ->
  Problem.t ->
  int array ->
  outcome
(** First-improvement hill climbing (defaults: 2048 samples, at most 20
    passes).  The result's ratio is measured on the same sample as
    {!Optimal.ratio_of_assignment}, so values are directly comparable.
    The scorer's sample dimension is sharded across [pool] (default
    {!Parallel.Pool.global}); move acceptance stays sequential, the
    fused kernels reduce per-chunk integers in chunk order, and the
    swap batch evaluation is integer-exact, so the outcome —
    assignment, ratio, move and pass counts — is identical for every
    pool size, and identical to the historical mutate-and-undo
    evaluation (the equivalence suite pins both). *)

val rod_polished :
  ?pool:Parallel.Pool.t ->
  ?samples:int ->
  ?max_passes:int ->
  Problem.t ->
  outcome
(** ROD followed by {!improve}. *)
