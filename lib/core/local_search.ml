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
   violations (feasible iff zero).  The violation counts double as the
   candidate-evaluation skip index: because [Problem.t] guarantees
   nonnegative load coefficients (and the QMC rate points are
   nonnegative), every per-sample contribution is >= 0, so removing an
   operator from a node can only lower that node's load and adding one
   can only raise it.  A relocation therefore changes a sample's
   violation count by at most -1/+1 and a swap by at most -2/+2, which
   is what lets the fused kernels skip samples whose feasibility
   provably cannot flip ([violations >= 2] for relocations,
   [violations >= 3] for swaps).

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
   [shift] path and the fused relocation kernel: per-sample state lines
   are touched by exactly one chunk, and every reduction is a sum of
   per-chunk integers combined in chunk order, so every pool size
   computes the same scores.  The swap evaluation path is read-only,
   integer-exact and pruned down to a handful of samples, so it runs
   sequentially. *)
type scorer = {
  samples : int;
  n_nodes : int;
  dim : int;
  pool : Pool.t;
  lo : float array array;  (* op -> load coefficient row (>= 0) *)
  points : float array;  (* sample s -> QMC rate point at [s * dim] *)
  node_load : float array array;  (* node -> sample *)
  violations : int array;  (* sample -> number of saturated nodes *)
  caps : Vec.t;
  assignment : int array;  (* shared with the caller; current homes *)
  mutable feasible : int;
  (* Fused-kernel scratch, preallocated so the steady state allocates
     nothing: chunk [c] of the relocation kernel writes only
     [gain_chunks.(c)]; the reduced per-node gains land in [gains]. *)
  gain_chunks : int array array;
  gains : int array;
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
  (* One fused pass per sample chunk: generate each QMC rate point into
     the shared block (the per-point scratch is hoisted out of the loop
     body), fill every node's load at it as the left-to-right dot of
     L_i with the point, and count the violations.  Each (node, sample)
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
            if !acc > caps.(i) then violations.(s) <- violations.(s) + 1
          done;
          if violations.(s) = 0 then incr feasible
        done;
        !feasible)
  in
  let ways = Pool.ways pool in
  {
    samples;
    n_nodes = n;
    dim;
    pool;
    lo;
    points;
    node_load;
    violations;
    caps;
    assignment;
    feasible;
    gain_chunks = Array.init ways (fun _ -> Array.make n 0);
    gains = Array.make n 0;
    swap_c1 = Array.make samples 0.;
    swap_a1 = Array.make samples 0.;
    swap_t1 = Array.make samples 0;
    swap_pos = Array.make samples 0;
    swap_pos_len = 0;
  }

(* Apply op j's contribution to node i with the given sign, keeping the
   violation counters and feasible count consistent.  Chunks touch
   disjoint sample ranges; the feasible delta is an exact integer sum,
   so the parallel result is identical to the sequential one. *)
let shift scorer j i sign =
  let load = scorer.node_load.(i) and row = scorer.lo.(j) in
  let points = scorer.points and dim = scorer.dim in
  let cap = scorer.caps.(i) in
  let violations = scorer.violations in
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
            violations.(s) <- violations.(s) + 1
          end
          else if before > cap && after <= cap then begin
            violations.(s) <- violations.(s) - 1;
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
           fused sweep uses.  The primitive keeps the sign-agnostic
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

(* Upper bound on any relocation gain for operator [j]: a sample can
   only become feasible if it has exactly one saturated node, that node
   is j's home, and removing j's contribution un-saturates it.  The
   count of such samples bounds [relocation_gains] from above, so zero
   means no candidate target can improve and the fused kernel can be
   skipped wholesale. *)
let relocation_positive_bound scorer j =
  let home = scorer.assignment.(j) in
  let load = scorer.node_load.(home) and row = scorer.lo.(j) in
  let points = scorer.points and dim = scorer.dim in
  let cap = scorer.caps.(home) in
  let violations = scorer.violations in
  let count = ref 0 in
  let acc = ref 0. in
  for s = 0 to scorer.samples - 1 do
    if violations.(s) = 1 then begin
      let h = load.(s) in
      if h > cap then begin
        let base = s * dim in
        acc := 0.;
        for k = 0 to dim - 1 do
          acc := !acc +. (row.(k) *. points.(base + k))
        done;
        if h -. !acc <= cap then incr count
      end
    end
  done;
  !count

(* Fused relocation kernel: the feasibility delta of moving [j] to
   every target node, in one pass over the sample dimension (one pool
   dispatch per operator instead of one per candidate).  Per sample the
   home-row subtraction and its violation transition are computed once
   and shared across all n candidates; the violation index skips
   samples that provably cannot flip:

   - v >= 2: a relocation changes v by at most -1/+1 (contributions are
     nonnegative, so the removal never saturates and the addition never
     un-saturates a node), hence v' >= 1 and the sample stays
     infeasible — delta 0 for every candidate.
   - v = 1: a candidate gains +1 exactly when j's removal un-saturates
     the home node (the unique saturated one) and the addition does not
     saturate the target; anything else leaves the sample infeasible.
   - v = 0: a candidate loses 1 exactly when the addition saturates the
     target (the removal cannot saturate the home).

   The per-candidate deltas are exact integers accumulated into
   per-chunk scratch rows and reduced in chunk order, so the result is
   identical for every pool size, and equals [gain scorer j ~to_node:i]
   for every i.  The returned array is scorer-owned scratch, valid
   until the next call. *)
let relocation_gains scorer j =
  let n = scorer.n_nodes in
  let home = scorer.assignment.(j) in
  let home_row = scorer.node_load.(home) and row_j = scorer.lo.(j) in
  let points = scorer.points and dim = scorer.dim in
  let cap_h = scorer.caps.(home) in
  let node_load = scorer.node_load and caps = scorer.caps in
  let violations = scorer.violations in
  let gain_chunks = scorer.gain_chunks in
  ignore
    (Pool.map_chunks_i scorer.pool ~n:scorer.samples (fun c lo hi ->
         let row = gain_chunks.(c) in
         Array.fill row 0 n 0;
         let acc = ref 0. in
         for s = lo to hi - 1 do
           let v = violations.(s) in
           (* A v = 1 sample whose saturated node is not the home cannot
              flip, so only the v = 0 and home-saturated v = 1 samples
              need j's contribution. *)
           if v = 0 || (v = 1 && home_row.(s) > cap_h) then begin
             let base = s * dim in
             acc := 0.;
             for k = 0 to dim - 1 do
               acc := !acc +. (row_j.(k) *. points.(base + k))
             done;
             let cs = !acc in
             if v = 0 then begin
               if cs > 0. then
                 for i = 0 to n - 1 do
                   if i <> home && node_load.(i).(s) +. cs > caps.(i) then
                     row.(i) <- row.(i) - 1
                 done
             end
             else if home_row.(s) -. cs <= cap_h then
               for i = 0 to n - 1 do
                 if i <> home && not (node_load.(i).(s) +. cs > caps.(i)) then
                   row.(i) <- row.(i) + 1
               done
           end
         done));
  let gains = scorer.gains in
  Array.fill gains 0 n 0;
  let chunks = Array.length gain_chunks in
  for c = 0 to chunks - 1 do
    let row = gain_chunks.(c) in
    for i = 0 to n - 1 do
      gains.(i) <- gains.(i) + row.(i)
    done
  done;
  gains

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
     applied immediately when it gains.  Candidates are scored by the
     fused read-only kernel — one pool dispatch per operator instead of
     four per (operator, node) pair — and skipped wholesale when the
     positive bound proves no target can gain. *)
  let relocation_sweep () =
    let any = ref false in
    let best_node = ref 0 in
    let best_gain = ref 0 in
    for j = 0 to m - 1 do
      let home = assignment.(j) in
      let tried = n - 1 in
      best_node := home;
      if relocation_positive_bound scorer j > 0 then begin
        let gains = relocation_gains scorer j in
        best_gain := 0;
        (* Ascending scan with a strict improvement test resolves ties
           to the lowest target index, like the mutate-and-undo sweep
           did. *)
        for i = 0 to n - 1 do
          if i <> home && gains.(i) > !best_gain then begin
            best_gain := gains.(i);
            best_node := i
          end
        done
      end;
      if !best_node <> home then begin
        move scorer j ~from_node:home ~to_node:!best_node;
        assignment.(j) <- !best_node;
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
