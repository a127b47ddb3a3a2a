(* rodlint: hot *)
(* rodlint: obs *)

module Vec = Linalg.Vec
module Pool = Parallel.Pool

let obs_passes =
  Obs.counter ~help:"Local-search sweeps over all operators"
    "rod_ls_passes_total"

let obs_relocations =
  Obs.counter
    ~labels:[ ("kind", "relocation") ]
    ~help:"Accepted local-search moves, by kind" "rod_ls_moves_total"

let obs_swaps = Obs.counter ~labels:[ ("kind", "swap") ] "rod_ls_moves_total"

let obs_rejects =
  Obs.counter ~help:"Candidate moves evaluated but not applied"
    "rod_ls_rejects_total"

let obs_score =
  Obs.histogram
    ~buckets:(Obs.Histogram.linear ~start:0.05 ~step:0.05 ~count:19)
    ~help:"Feasible-set score (feasible/samples) after each pass"
    "rod_ls_pass_score"

type outcome = {
  assignment : int array;
  ratio : float;
  moves : int;
  passes : int;
}

(* Shared-sample scoring state, maintained incrementally: per-node,
   per-sample accumulated load and a per-sample count of capacity
   violations (feasible iff zero), with the xor of the saturated nodes'
   ids beside it (for v = 1 the saturated node; for v = 2 with one
   member known, its xor with the owner is the other).  The violation
   counts drive the candidate-evaluation skips: because [Problem.t]
   guarantees nonnegative load coefficients (and the QMC rate points
   are nonnegative), every per-sample contribution is >= 0, so removing an
   operator from a node can only lower that node's load and adding one
   can only raise it.  A relocation therefore changes a sample's
   violation count by at most -1/+1 and a swap by at most -2/+2, so
   only samples with [violations <= 1] can flip under a relocation
   (and only those whose one saturated node is the operator's home can
   turn feasible, which is what the per-node index serves) and only
   samples with [violations <= 2] under a swap.

   Node loads start as the dot of each node's load vector (the sum of
   its operators' coefficient rows) with the QMC point.  No
   per-operator contribution table is kept: an operator's load on
   sample [s] is recomputed where a kernel needs it, as the
   left-to-right dot of its coefficient row with the stored QMC point,

     acc := 0.; for k: acc := !acc +. row.(k) *. points.(s * dim + k)

   [shift] and every read-only kernel use this one expression, so a
   predicted delta is bit-identical to the move it predicts.  The dot
   is written out at each site (a float-returning helper would box its
   result on every call), with the accumulator hoisted out of the
   sample loop.

   The sample dimension is sharded across the pool for the mutating
   [shift] path and the scalar [gain]/[swap_gain] primitives: per-sample
   state lines are touched by exactly one chunk, and every reduction is
   a sum of per-chunk integers combined in chunk order, so every pool
   size computes the same scores.  The relocation and swap sweeps'
   kernels are read-only, integer-exact and pruned down to the samples
   that can flip, so they run sequentially. *)
type scorer = {
  samples : int;
  n_nodes : int;
  dim : int;
  pool : Pool.t;
  lo : float array array;  (* op -> load coefficient row (>= 0) *)
  points : float array;  (* sample s -> QMC rate point at [s * dim] *)
  node_load : float array array;  (* node -> sample *)
  violations : int array;  (* sample -> number of saturated nodes *)
  owner : int array;  (* sample -> xor of the saturated nodes' ids *)
  caps : Vec.t;
  assignment : int array;  (* shared with the caller; current homes *)
  mutable feasible : int;
  (* Saturated-node index, CSR over [n + 1] buckets in ascending [s]:
     bucket [i < n] holds the v = 1 samples whose saturated node is
     [i], bucket [n] the feasible (v = 0) samples.  Bucket [b] spans
     [index.(index_start.(b)) .. index.(index_start.(b + 1) - 1)].
     [shift] marks it stale; the next reader rebuilds it in
     O(samples + n). *)
  index_start : int array;  (* n + 2 *)
  index_fill : int array;  (* n + 1; rebuild cursors *)
  index : int array;  (* samples *)
  mutable index_stale : bool;
  (* [best_relocation] scratch, preallocated so a call allocates
     nothing: the home-owned samples that un-saturate when j leaves
     ([win_s], with j's contribution in [win_c]), per-target win
     counts and the targets sorted by them, and j's contribution on
     each feasible sample, stored at the sample's position in
     [index]. *)
  win_s : int array;
  win_c : float array;
  wins : int array;
  rank : int array;  (* samples + 1; counting-sort buckets by wins *)
  order : int array;  (* n; targets by wins descending *)
  feas_c : float array;
  mutable best_target : int;
  (* Swap-batch scratch for one (j1, current state) preparation: j1's
     contribution and the home-row subtraction shared across every
     partner j2, the violation delta of j1's removal, and the
     (typically tiny) list of samples where a swap could possibly gain
     feasibility.  The rows are filled only when that list is
     non-empty. *)
  swap_c1 : float array;  (* sample -> contribution of j1 *)
  swap_a1 : float array;  (* sample -> node_load(a) -. contribution *)
  swap_t1 : int array;  (* sample -> violation delta of removing j1 *)
  swap_pos : int array;  (* candidate-gain sample indices *)
  mutable swap_pos_len : int;
}

let feasible scorer = scorer.feasible

let n_samples scorer = scorer.samples

let make_scorer ?pool problem assignment samples =
  if samples <= 0 then
    invalid_arg "Local_search.make_scorer: samples must be positive";
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let n = Problem.n_nodes problem in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let dim = Problem.dim problem in
  let lo = problem.Problem.lo in
  let caps = problem.Problem.caps in
  (* Node load vectors L_i = sum of lo_j over the operators on node i,
     summed in ascending j as [Plan.node_loads] does: O(m * d) once, so
     the per-sample work below is one d-term dot per node, not per
     operator. *)
  let ln = Array.init n (fun _ -> Array.make dim 0.) in
  Array.iteri (fun j node -> Vec.add_inplace lo.(j) ln.(node)) assignment;
  let points = Array.make (samples * dim) 0. in
  let node_load = Array.init n (fun _ -> Array.make samples 0.) in
  let violations = Array.make samples 0 in
  let owner = Array.make samples 0 in
  (* One fused pass per sample chunk: generate each QMC rate point into
     the shared block (the per-point scratch is hoisted out of the loop
     body), fill every node's load at it as the left-to-right dot of
     L_i with the point, and count the violations (xoring each
     saturated node into the sample's owner).  Each (node, sample)
     cell is written by exactly one chunk. *)
  let feasible =
    Pool.map_reduce pool ~n:samples ~init:0 ~combine:( + ) ~map:(fun lo_s hi_s ->
        let cube = Array.make dim 0. in
        let point = Array.make dim 0. in
        let feasible = ref 0 in
        let acc = ref 0. in
        for s = lo_s to hi_s - 1 do
          Feasible.Halton.point_into cube s;
          Feasible.Simplex.sample_ideal_into ~l ~c_total ~cube_point:cube
            ~scratch:cube point;
          Array.blit point 0 points (s * dim) dim;
          for i = 0 to n - 1 do
            let li = ln.(i) in
            acc := 0.;
            for k = 0 to dim - 1 do
              acc := !acc +. (li.(k) *. point.(k))
            done;
            node_load.(i).(s) <- !acc;
            if !acc > caps.(i) then begin
              violations.(s) <- violations.(s) + 1;
              owner.(s) <- owner.(s) lxor i
            end
          done;
          if violations.(s) = 0 then incr feasible
        done;
        !feasible)
  in
  {
    samples;
    n_nodes = n;
    dim;
    pool;
    lo;
    points;
    node_load;
    violations;
    owner;
    caps;
    assignment;
    feasible;
    index_start = Array.make (n + 2) 0;
    index_fill = Array.make (n + 1) 0;
    index = Array.make samples 0;
    index_stale = true;
    win_s = Array.make samples 0;
    win_c = Array.make samples 0.;
    wins = Array.make n 0;
    rank = Array.make (samples + 1) 0;
    order = Array.make n 0;
    feas_c = Array.make samples 0.;
    best_target = -1;
    swap_c1 = Array.make samples 0.;
    swap_a1 = Array.make samples 0.;
    swap_t1 = Array.make samples 0;
    swap_pos = Array.make samples 0;
    swap_pos_len = 0;
  }

(* Apply op j's contribution to node i with the given sign, keeping the
   violation counters, owners and feasible count consistent, and
   marking the saturated-node index stale.  Chunks touch disjoint
   sample ranges; the feasible delta is an exact integer sum, so the
   parallel result is identical to the sequential one. *)
let shift scorer j i sign =
  let load = scorer.node_load.(i) and row = scorer.lo.(j) in
  let points = scorer.points and dim = scorer.dim in
  let cap = scorer.caps.(i) in
  let violations = scorer.violations and owner = scorer.owner in
  scorer.index_stale <- true;
  let delta =
    Pool.map_reduce scorer.pool ~n:scorer.samples ~init:0 ~combine:( + )
      ~map:(fun lo hi ->
        let delta = ref 0 in
        let acc = ref 0. in
        for s = lo to hi - 1 do
          let base = s * dim in
          acc := 0.;
          for k = 0 to dim - 1 do
            acc := !acc +. (row.(k) *. points.(base + k))
          done;
          let before = load.(s) in
          let after = before +. (sign *. !acc) in
          load.(s) <- after;
          if before <= cap && after > cap then begin
            if violations.(s) = 0 then decr delta;
            violations.(s) <- violations.(s) + 1;
            owner.(s) <- owner.(s) lxor i
          end
          else if before > cap && after <= cap then begin
            violations.(s) <- violations.(s) - 1;
            owner.(s) <- owner.(s) lxor i;
            if violations.(s) = 0 then incr delta
          end
        done;
        !delta)
  in
  scorer.feasible <- scorer.feasible + delta

let move scorer j ~from_node ~to_node =
  shift scorer j from_node (-1.);
  shift scorer j to_node 1.

(* Read-only feasibility delta of the hypothetical move of [j] from its
   current node to [to_node]: simulates exactly the two [shift]s a
   [move] would perform — same float expressions against the same
   stored values, both crossing directions checked like [shift] does —
   but writes nothing.  The per-sample feasible deltas of the two
   shifts telescope to [(v_after = 0) - (v_before = 0)], so the sum
   equals the [feasible]-after-move minus [feasible]-before a real
   [move] would produce, bit for bit. *)
let gain scorer j ~to_node =
  let from_node = scorer.assignment.(j) in
  if to_node = from_node then 0
  else begin
    let row_f = scorer.node_load.(from_node)
    and row_t = scorer.node_load.(to_node)
    and row = scorer.lo.(j) in
    let points = scorer.points and dim = scorer.dim in
    let cap_f = scorer.caps.(from_node) and cap_t = scorer.caps.(to_node) in
    let violations = scorer.violations in
    Pool.map_reduce scorer.pool ~n:scorer.samples ~init:0 ~combine:( + )
      ~map:(fun lo hi ->
        let delta = ref 0 in
        let acc = ref 0. in
        for s = lo to hi - 1 do
          let v = violations.(s) in
          (* |Δv| <= 2 across both steps, so v >= 3 can never reach 0
             and, being nonzero already, contributes no delta. *)
          if v < 3 then begin
            let base = s * dim in
            acc := 0.;
            for k = 0 to dim - 1 do
              acc := !acc +. (row.(k) *. points.(base + k))
            done;
            let c = !acc in
            let before_f = row_f.(s) in
            let after_f = before_f +. (-1. *. c) in
            let v1 =
              if before_f <= cap_f && after_f > cap_f then v + 1
              else if before_f > cap_f && after_f <= cap_f then v - 1
              else v
            in
            let before_t = row_t.(s) in
            let after_t = before_t +. (1. *. c) in
            let v2 =
              if before_t <= cap_t && after_t > cap_t then v1 + 1
              else if before_t > cap_t && after_t <= cap_t then v1 - 1
              else v1
            in
            if v2 = 0 then begin
              if v <> 0 then incr delta
            end
            else if v = 0 then decr delta
          end
        done;
        !delta)
  end

(* Read-only feasibility delta of swapping [j1] and [j2] between their
   (distinct) current nodes: simulates the four [shift]s of the
   mutate-and-undo evaluation in order — remove j1 from a, add j1 to b,
   remove j2 from b, add j2 to a — with each step reading the value the
   previous step produced, exactly as the mutating path would. *)
let swap_gain scorer j1 j2 =
  let a = scorer.assignment.(j1) and b = scorer.assignment.(j2) in
  if a = b then
    invalid_arg "Local_search.swap_gain: operators share a node";
  let row_a = scorer.node_load.(a) and row_b = scorer.node_load.(b) in
  let r1 = scorer.lo.(j1) and r2 = scorer.lo.(j2) in
  let points = scorer.points and dim = scorer.dim in
  let cap_a = scorer.caps.(a) and cap_b = scorer.caps.(b) in
  let violations = scorer.violations in
  Pool.map_reduce scorer.pool ~n:scorer.samples ~init:0 ~combine:( + )
    ~map:(fun lo hi ->
      let delta = ref 0 in
      let acc1 = ref 0. and acc2 = ref 0. in
      for s = lo to hi - 1 do
        let v = violations.(s) in
        (* |Δv| <= 4 across the four steps but the two removals can
           lower it by at most 2, so v >= 5 is inert; with nonnegative
           contributions v >= 3 already is, and that is the bound the
           swap sweep uses.  The primitive keeps the sign-agnostic
           bound for symmetry with the arms below. *)
        if v < 5 then begin
          let base = s * dim in
          acc1 := 0.;
          acc2 := 0.;
          for k = 0 to dim - 1 do
            acc1 := !acc1 +. (r1.(k) *. points.(base + k));
            acc2 := !acc2 +. (r2.(k) *. points.(base + k))
          done;
          let ca = !acc1 and cb = !acc2 in
          let a0 = row_a.(s) in
          let a1 = a0 +. (-1. *. ca) in
          let v1 =
            if a0 <= cap_a && a1 > cap_a then v + 1
            else if a0 > cap_a && a1 <= cap_a then v - 1
            else v
          in
          let b0 = row_b.(s) in
          let b1 = b0 +. (1. *. ca) in
          let v2 =
            if b0 <= cap_b && b1 > cap_b then v1 + 1
            else if b0 > cap_b && b1 <= cap_b then v1 - 1
            else v1
          in
          let b2 = b1 +. (-1. *. cb) in
          let v3 =
            if b1 <= cap_b && b2 > cap_b then v2 + 1
            else if b1 > cap_b && b2 <= cap_b then v2 - 1
            else v2
          in
          let a2 = a1 +. (1. *. cb) in
          let v4 =
            if a1 <= cap_a && a2 > cap_a then v3 + 1
            else if a1 > cap_a && a2 <= cap_a then v3 - 1
            else v3
          in
          if v4 = 0 then begin
            if v <> 0 then incr delta
          end
          else if v = 0 then decr delta
        end
      done;
      !delta)

(* Rebuild the saturated-node index when a shift has touched the
   violations since the last rebuild: one counting pass, one prefix
   sum, one placing pass, each in ascending [s]. *)
let refresh_index scorer =
  if scorer.index_stale then begin
    let n = scorer.n_nodes in
    let start = scorer.index_start and fill = scorer.index_fill in
    let index = scorer.index in
    let violations = scorer.violations and owner = scorer.owner in
    Array.fill start 0 (n + 2) 0;
    for s = 0 to scorer.samples - 1 do
      let v = violations.(s) in
      if v = 0 then start.(n + 1) <- start.(n + 1) + 1
      else if v = 1 then begin
        let b = owner.(s) + 1 in
        start.(b) <- start.(b) + 1
      end
    done;
    for b = 1 to n + 1 do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    Array.blit start 0 fill 0 (n + 1);
    for s = 0 to scorer.samples - 1 do
      let v = violations.(s) in
      if v <= 1 then begin
        let b = if v = 0 then n else owner.(s) in
        index.(fill.(b)) <- s;
        fill.(b) <- fill.(b) + 1
      end
    done;
    scorer.index_stale <- false
  end

(* The samples a relocation of [j] can turn feasible: exactly one
   saturated node, that node j's home, and removing j's contribution
   un-saturates it.  They are the home's index bucket filtered by the
   removal test; each lands in [win_s] with j's contribution in
   [win_c].  Returns their count. *)
let collect_wins scorer j =
  refresh_index scorer;
  let home = scorer.assignment.(j) in
  let load = scorer.node_load.(home) and row = scorer.lo.(j) in
  let points = scorer.points and dim = scorer.dim in
  let cap = scorer.caps.(home) in
  let index = scorer.index in
  let win_s = scorer.win_s and win_c = scorer.win_c in
  let count = ref 0 in
  let acc = ref 0. in
  for k = scorer.index_start.(home) to scorer.index_start.(home + 1) - 1 do
    let s = index.(k) in
    let base = s * dim in
    acc := 0.;
    for d = 0 to dim - 1 do
      acc := !acc +. (row.(d) *. points.(base + d))
    done;
    if load.(s) -. !acc <= cap then begin
      win_s.(!count) <- s;
      win_c.(!count) <- !acc;
      incr count
    end
  done;
  !count

(* Upper bound on any relocation gain for operator [j]: the count of
   samples that can turn feasible, read off the home node's bucket of
   the saturated-node index.  Zero proves no target can improve. *)
let relocation_positive_bound scorer j = collect_wins scorer j

(* The best relocation of [j], read-only.  The gain of target [i] is
   [wins.(i) - losses(i)]:

   - a sample with v >= 2, or v = 1 saturated elsewhere than the home,
     stays infeasible (contributions are nonnegative, so a relocation
     moves v by at most -1/+1 and only the home can un-saturate);
   - a win is a collected sample on which adding j's contribution
     leaves [i] unsaturated;
   - a loss is a feasible sample on which adding it saturates [i] (the
     removal cannot saturate the home).

   These are the tests [gain] makes, on the same float expressions, so
   the counts are exact.  Wins per target cost O(W * n), their
   counting sort O(W + n).  Targets are visited by wins descending,
   index ascending; [i] can still win only
   if its gain beats the best so far, or ties it from a lower index, so
   its loss count stops as soon as the losses rule that out, and the
   search stops once the wins alone fall below the best.  j's
   contribution on the feasible samples is computed once, on the first
   loss count. *)
let best_relocation scorer j =
  let w = collect_wins scorer j in
  scorer.best_target <- -1;
  if w = 0 then 0
  else begin
    let n = scorer.n_nodes in
    let home = scorer.assignment.(j) in
    let node_load = scorer.node_load and caps = scorer.caps in
    let win_s = scorer.win_s and win_c = scorer.win_c in
    let wins = scorer.wins in
    Array.fill wins 0 n 0;
    for k = 0 to w - 1 do
      let s = win_s.(k) and c = win_c.(k) in
      for i = 0 to n - 1 do
        if not (node_load.(i).(s) +. c > caps.(i)) then wins.(i) <- wins.(i) + 1
      done
    done;
    wins.(home) <- 0;
    (* Counting sort of the targets that win any sample into [order],
       by (wins descending, index ascending): rank [r] holds wins
       [w - r]. *)
    let rank = scorer.rank and order = scorer.order in
    Array.fill rank 0 (w + 1) 0;
    let ranked = ref 0 in
    for i = 0 to n - 1 do
      let wi = wins.(i) in
      if wi > 0 then begin
        rank.(w - wi) <- rank.(w - wi) + 1;
        incr ranked
      end
    done;
    let sum = ref 0 in
    for r = 0 to w do
      let count = rank.(r) in
      rank.(r) <- !sum;
      sum := !sum + count
    done;
    for i = 0 to n - 1 do
      let wi = wins.(i) in
      if wi > 0 then begin
        let r = w - wi in
        order.(rank.(r)) <- i;
        rank.(r) <- rank.(r) + 1
      end
    done;
    let index = scorer.index and feas_c = scorer.feas_c in
    let f0 = scorer.index_start.(n) and f1 = scorer.index_start.(n + 1) in
    let row = scorer.lo.(j) and points = scorer.points and dim = scorer.dim in
    let contributions = ref false in
    let acc = ref 0. in
    let best = ref 0 and best_i = ref (-1) in
    let losses = ref 0 and k = ref 0 in
    let p = ref 0 in
    while !p < !ranked && wins.(order.(!p)) >= !best do
      let i = order.(!p) in
      let wi = wins.(i) in
      (* The fewest gains [i] needs to take over from the best. *)
      let need = if !best_i >= 0 && i < !best_i then !best else !best + 1 in
      let slack = wi - need in
      if slack >= 0 then begin
        if not !contributions then begin
          for q = f0 to f1 - 1 do
            let base = index.(q) * dim in
            acc := 0.;
            for d = 0 to dim - 1 do
              acc := !acc +. (row.(d) *. points.(base + d))
            done;
            feas_c.(q) <- !acc
          done;
          contributions := true
        end;
        let load = node_load.(i) and cap = caps.(i) in
        losses := 0;
        k := f0;
        while !losses <= slack && !k < f1 do
          if load.(index.(!k)) +. feas_c.(!k) > cap then incr losses;
          incr k
        done;
        if !losses <= slack then begin
          best := wi - !losses;
          best_i := i
        end
      end;
      incr p
    done;
    scorer.best_target <- !best_i;
    !best
  end

let best_target scorer = scorer.best_target

let sample_violations scorer s = scorer.violations.(s)

let sample_load scorer ~node s = scorer.node_load.(node).(s)

(* Prepare the swap batch for [j1] against the current state: collect
   the samples where a swap could possibly gain feasibility, then, only
   if there are any, cache j1's contribution, the home-row subtraction
   [node_load(a) -. c1] and its violation delta per sample (shared by
   every partner j2).  A sample with violation count v can only reach
   v' = 0 if v + t1 <= 1, because the only remaining decrement in the
   four-step simulation is j2's removal from b; with nonnegative
   contributions v = 0 samples can only lose.  So v = 1 samples are
   always candidates, v = 2 samples only when removing j1 un-saturates
   its home — the one case that needs j1's contribution.  The resulting
   candidate list is usually tiny (most j1 have none), which is what
   makes the quadratic swap sweep affordable. *)
let swap_prepare scorer j1 =
  let a = scorer.assignment.(j1) in
  let row_a = scorer.node_load.(a) and r1 = scorer.lo.(j1) in
  let points = scorer.points and dim = scorer.dim in
  let cap_a = scorer.caps.(a) in
  let violations = scorer.violations in
  let pos = scorer.swap_pos in
  let len = ref 0 in
  let acc = ref 0. in
  for s = 0 to scorer.samples - 1 do
    let v = violations.(s) in
    if v = 1 then begin
      pos.(!len) <- s;
      incr len
    end
    else if v = 2 then begin
      let a0 = row_a.(s) in
      if a0 > cap_a then begin
        let base = s * dim in
        acc := 0.;
        for k = 0 to dim - 1 do
          acc := !acc +. (r1.(k) *. points.(base + k))
        done;
        if a0 -. !acc <= cap_a then begin
          pos.(!len) <- s;
          incr len
        end
      end
    end
  done;
  scorer.swap_pos_len <- !len;
  if !len > 0 then begin
    let c1s = scorer.swap_c1 and a1s = scorer.swap_a1 in
    let t1s = scorer.swap_t1 in
    for s = 0 to scorer.samples - 1 do
      let base = s * dim in
      acc := 0.;
      for k = 0 to dim - 1 do
        acc := !acc +. (r1.(k) *. points.(base + k))
      done;
      let a0 = row_a.(s) in
      let a1 = a0 -. !acc in
      c1s.(s) <- !acc;
      a1s.(s) <- a1;
      t1s.(s) <- (if a0 > cap_a && a1 <= cap_a then -1 else 0)
    done
  end

(* Decide the swap (j1, j2) from the prepared batch: the positive part
   of the gain is summed over the candidate list only, and the negative
   part (feasible samples that the swap would break) is only computed
   when some sample actually flips feasible — with an early exit as
   soon as the losses cancel the wins.  The accept decision (gain > 0)
   is exactly the one the mutate-and-undo evaluation reaches, at a
   fraction of the work.  [swap_prepare scorer j1] must be current and
   have found candidates. *)
let swap_try scorer j1 j2 =
  let a = scorer.assignment.(j1) and b = scorer.assignment.(j2) in
  let row_b = scorer.node_load.(b) and r2 = scorer.lo.(j2) in
  let points = scorer.points and dim = scorer.dim in
  let cap_a = scorer.caps.(a) and cap_b = scorer.caps.(b) in
  let violations = scorer.violations in
  let c1s = scorer.swap_c1 and a1s = scorer.swap_a1 in
  let t1s = scorer.swap_t1 in
  let pos_idx = scorer.swap_pos in
  let pos = ref 0 in
  let acc = ref 0. in
  for k = 0 to scorer.swap_pos_len - 1 do
    let s = pos_idx.(k) in
    let v1 = violations.(s) + t1s.(s) in
    let b0 = row_b.(s) in
    (* v1 is 0 or 1 on a candidate.  From 1 only j2's removal from b
       can reach 0, and that needs b saturated already (t2 = 0,
       t3 = -1), so an unsaturated b skips j2's contribution. *)
    if v1 = 0 || b0 > cap_b then begin
      let base = s * dim in
      acc := 0.;
      for k = 0 to dim - 1 do
        acc := !acc +. (r2.(k) *. points.(base + k))
      done;
      let cb = !acc in
      let b1 = b0 +. c1s.(s) in
      let t2 = if b0 <= cap_b && b1 > cap_b then 1 else 0 in
      let b2 = b1 -. cb in
      let t3 = if b1 > cap_b && b2 <= cap_b then -1 else 0 in
      let a1 = a1s.(s) in
      let a2 = a1 +. cb in
      let t4 = if a1 <= cap_a && a2 > cap_a then 1 else 0 in
      if v1 + t2 + t3 + t4 = 0 then incr pos
    end
  done;
  if !pos = 0 then false
  else begin
    (* Negative part: feasible samples the swap would break.  t1 is 0
       on every v = 0 sample (its home node cannot be saturated), so
       the sample stays feasible iff no step leaves a saturation
       behind. *)
    let neg = ref 0 in
    let s = ref 0 in
    let samples = scorer.samples in
    while !neg < !pos && !s < samples do
      if violations.(!s) = 0 then begin
        let base = !s * dim in
        acc := 0.;
        for k = 0 to dim - 1 do
          acc := !acc +. (r2.(k) *. points.(base + k))
        done;
        let cb = !acc in
        let b0 = row_b.(!s) in
        let b1 = b0 +. c1s.(!s) in
        let t2 = if b1 > cap_b then 1 else 0 in
        let b2 = b1 -. cb in
        let t3 = if b1 > cap_b && b2 <= cap_b then -1 else 0 in
        let a1 = a1s.(!s) in
        let a2 = a1 +. cb in
        let t4 = if a2 > cap_a then 1 else 0 in
        if t2 + t3 + t4 <> 0 then incr neg
      end;
      incr s
    done;
    !pos > !neg
  end

let improve ?pool ?(samples = 2048) ?(max_passes = 20) problem assignment =
  let m = Problem.n_ops problem and n = Problem.n_nodes problem in
  if Array.length assignment <> m then
    invalid_arg "Local_search.improve: assignment length";
  if max_passes < 1 then invalid_arg "Local_search.improve: max_passes < 1";
  let assignment = Array.copy assignment in
  let scorer = make_scorer ?pool problem assignment samples in
  let moves = ref 0 in
  let passes = ref 0 in
  let improved = ref true in
  (* Telemetry tallies stay in plain locals through the sweeps (the
     sweeps run pool-backed scoring) and are flushed to the registry
     once at the end. *)
  let relocations_applied = ref 0 in
  let swaps_applied = ref 0 in
  let rejected = ref 0 in
  (* One sweep of single-operator relocations; best-of-n per operator,
     applied immediately when it gains.  [best_relocation] scores the
     targets read-only from the saturated-node index, resolving ties to
     the lowest target index like the mutate-and-undo sweep did. *)
  let relocation_sweep () =
    let any = ref false in
    for j = 0 to m - 1 do
      let home = assignment.(j) in
      let tried = n - 1 in
      if best_relocation scorer j > 0 then begin
        let target = scorer.best_target in
        move scorer j ~from_node:home ~to_node:target;
        assignment.(j) <- target;
        incr moves;
        incr relocations_applied;
        rejected := !rejected + tried - 1;
        any := true
      end
      else rejected := !rejected + tried
    done;
    !any
  in
  (* Pairwise exchanges escape single-move local optima (swapping two
     operators between their nodes keeps per-node counts stable while
     rebalancing directions).  Each j1 prepares one shared batch; an
     accepted swap invalidates it (the home node changes), so the next
     pair re-prepares against the new state. *)
  let swap_sweep () =
    let any = ref false in
    let prepared = ref false in
    for j1 = 0 to m - 1 do
      prepared := false;
      for j2 = j1 + 1 to m - 1 do
        let a = assignment.(j1) and b = assignment.(j2) in
        if a <> b then begin
          if not !prepared then begin
            swap_prepare scorer j1;
            prepared := true
          end;
          if scorer.swap_pos_len > 0 && swap_try scorer j1 j2 then begin
            move scorer j1 ~from_node:a ~to_node:b;
            move scorer j2 ~from_node:b ~to_node:a;
            assignment.(j1) <- b;
            assignment.(j2) <- a;
            moves := !moves + 2;
            incr swaps_applied;
            any := true;
            prepared := false
          end
          else incr rejected
        end
      done
    done;
    !any
  in
  Obs.with_span ~cat:"place"
    ~args:[ ("ops", string_of_int m); ("samples", string_of_int samples) ]
    "ls.improve"
    (fun () ->
      while !improved && !passes < max_passes do
        incr passes;
        let relocated = relocation_sweep () in
        (* Swaps are O(m^2); only pay for them when relocations are dry. *)
        improved := (relocated || swap_sweep ());
        Obs.Histogram.observe obs_score
          (float_of_int scorer.feasible /. float_of_int samples)
      done);
  Obs.Counter.add obs_passes !passes;
  Obs.Counter.add obs_relocations !relocations_applied;
  Obs.Counter.add obs_swaps !swaps_applied;
  Obs.Counter.add obs_rejects !rejected;
  {
    assignment;
    ratio = float_of_int scorer.feasible /. float_of_int samples;
    moves = !moves;
    passes = !passes;
  }

let rod_polished ?pool ?samples ?max_passes problem =
  improve ?pool ?samples ?max_passes problem (Rod_algorithm.place problem)
