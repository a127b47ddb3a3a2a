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

    Candidate evaluation is {e read-only}: the scorer state is only
    written when a move is actually applied ({!move}).  A sample with
    [v] saturated nodes can change feasibility only if [v <= 1] under a
    relocation or [v <= 2] under a swap (load contributions are
    nonnegative by the {!Problem.t} invariants).  The scorer keeps, per
    sample, [v] and the xor of the saturated nodes' ids (the node
    itself when [v = 1]), and indexes the [v = 1] samples by their
    saturated node: only a sample in an operator's home bucket can turn
    feasible under its relocation.  {!best_relocation} scores an
    operator's targets from that bucket, and swap sweeps run against a
    per-operator batch whose candidate-sample list is pruned by the
    violation counts.

    Complexity: building the scorer is [O(m * d + n * samples * d)]:
    each node's load vector [L_i] is summed once from its operators'
    rows, and a node's load on a sample is one [d]-term dot of [L_i]
    with the QMC point.  A move is [O(samples * d)] and leaves the
    saturated-node index stale; the next relocation query rebuilds it in
    [O(samples + n)].  A relocation sweep costs, per operator,
    [O(H * d)] for its home bucket of size [H], then, only when some
    sample can flip ([W > 0] of them), [O(W * n + F * d)] plus one
    early-exit loss count over the [F] feasible samples per visited
    target.  Swap sweeps are [O(m * samples + m^2 * candidates)] with
    [candidates] the usually tiny per-batch gain-candidate list, and run
    only when relocations are exhausted; their [samples] term carries a
    factor [d]: an operator's load on a sample is recomputed from the
    point block as a [d]-term dot wherever a kernel needs it.  The
    search ends after a pass that finds no improving move.

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
    accumulated loads, per-sample violation counts and saturated-node
    owners, the index of single-saturation samples by node, and the
    running feasible total.  Exposed so the equivalence tests and the
    replanner can drive the primitives directly. *)

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
    with the point: [O(m * d + n * samples * d)], recording each
    sample's violation count and the xor of its saturated nodes' ids.
    No per-operator contribution table is built; every kernel
    recomputes an operator's contribution where it needs one.  Defaults
    to the global pool.
    Raises [Invalid_argument] when [samples <= 0]. *)

val feasible : scorer -> int
(** Number of feasible samples under the current state. *)

val n_samples : scorer -> int

val move : scorer -> int -> from_node:int -> to_node:int -> unit
(** Apply operator [j]'s relocation, updating node loads, violation
    counts, saturated-node owners and the feasible total incrementally
    (two shifts, sharded over the pool; exact integer reduction).  The
    index of single-saturation samples is rebuilt lazily, by the next
    {!relocation_positive_bound} or {!best_relocation}. *)

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

val relocation_positive_bound : scorer -> int -> int
(** Upper bound on every [gain scorer j ~to_node:i]: the number of
    samples that a relocation of [j] could turn feasible — exactly one
    saturated node, that node [j]'s home, and removing [j]'s
    contribution un-saturates it.  Only the home node's bucket of the
    saturated-node index is visited.  [0] proves no improving target
    exists. *)

val best_relocation : scorer -> int -> int
(** [best_relocation scorer j] is the largest positive
    [gain scorer j ~to_node:i] over the targets [i], or [0] when no
    target gains; {!best_target} then names the lowest target index
    that reaches it.  Read-only and sequential; it allocates nothing.
    Targets are visited by their count of winnable samples, descending,
    and each one's losses over the feasible samples are counted only
    until the target can neither beat nor tie the best so far, so the
    result is the argmax a full scan of [gain] would find, at a fraction
    of its cost. *)

val best_target : scorer -> int
(** The target found by the last {!best_relocation} call, or [-1] when
    it found none; valid until the next call. *)

val sample_violations : scorer -> int -> int
(** [sample_violations scorer s]: number of saturated nodes on sample
    [s] under the current state.  With {!sample_load}, what a
    full-sample oracle needs to recount a kernel's answer. *)

val sample_load : scorer -> node:int -> int -> float
(* rodunits: cpu-sec/sim-sec *)
(** [sample_load scorer ~node s]: [node]'s accumulated load on sample
    [s], the value every kernel reads. *)

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
    {!Parallel.Pool.global}); move acceptance and candidate scoring
    stay sequential, and the sharded move path reduces per-chunk
    integers in chunk order, so the outcome —
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
