(* The historical mutate-and-undo local-search driver, preserved as a
   test oracle on top of the public scorer API: every candidate is
   evaluated by actually applying the move, reading the feasible count
   and undoing it — four O(samples) passes per (operator, node) pair,
   exactly like the implementation this repo shipped before the fused
   read-only sweeps.  test_ls_equiv.ml pins the rewrite to this path
   bit for bit: assignment, ratio, move and pass counts.  Two more
   oracles follow it: the full-sample relocation bound and the
   quadratic margin repair. *)

module LS = Rod.Local_search

let improve ?pool ?(samples = 2048) ?(max_passes = 20) problem assignment =
  let m = Rod.Problem.n_ops problem and n = Rod.Problem.n_nodes problem in
  if Array.length assignment <> m then
    invalid_arg "Ls_reference.improve: assignment length";
  if max_passes < 1 then invalid_arg "Ls_reference.improve: max_passes < 1";
  let assignment = Array.copy assignment in
  let scorer = LS.make_scorer ?pool problem assignment samples in
  let moves = ref 0 in
  let passes = ref 0 in
  let improved = ref true in
  (* One sweep of single-operator relocations; best-of-n per operator,
     applied immediately when it gains. *)
  let relocation_sweep () =
    let any = ref false in
    for j = 0 to m - 1 do
      let home = assignment.(j) in
      let best_gain = ref 0 and best_node = ref home in
      for i = 0 to n - 1 do
        if i <> home then begin
          let before = LS.feasible scorer in
          LS.move scorer j ~from_node:home ~to_node:i;
          let gain = LS.feasible scorer - before in
          LS.move scorer j ~from_node:i ~to_node:home;
          if gain > !best_gain then begin
            best_gain := gain;
            best_node := i
          end
        end
      done;
      if !best_node <> home then begin
        LS.move scorer j ~from_node:home ~to_node:!best_node;
        assignment.(j) <- !best_node;
        incr moves;
        any := true
      end
    done;
    !any
  in
  (* Pairwise exchanges, evaluated by performing the swap and undoing
     it when it does not gain. *)
  let swap_sweep () =
    let any = ref false in
    for j1 = 0 to m - 1 do
      for j2 = j1 + 1 to m - 1 do
        let a = assignment.(j1) and b = assignment.(j2) in
        if a <> b then begin
          let before = LS.feasible scorer in
          LS.move scorer j1 ~from_node:a ~to_node:b;
          LS.move scorer j2 ~from_node:b ~to_node:a;
          if LS.feasible scorer > before then begin
            assignment.(j1) <- b;
            assignment.(j2) <- a;
            moves := !moves + 2;
            any := true
          end
          else begin
            LS.move scorer j1 ~from_node:b ~to_node:a;
            LS.move scorer j2 ~from_node:a ~to_node:b
          end
        end
      done
    done;
    !any
  in
  while !improved && !passes < max_passes do
    incr passes;
    let relocated = relocation_sweep () in
    improved := relocated || swap_sweep ()
  done;
  {
    LS.assignment;
    ratio = float_of_int (LS.feasible scorer) /. float_of_int samples;
    moves = !moves;
    passes = !passes;
  }

(* The full-sample positive bound the scorer computed before it indexed
   single-saturation samples by node: every sample with exactly one
   saturated node, that node j's home, on which removing j's
   contribution un-saturates it.  The QMC point is regenerated as
   [make_scorer] generates it, and the contribution is the same
   left-to-right dot, so the count reads the scorer's own loads through
   the same arithmetic. *)
let relocation_positive_bound problem scorer ~assignment j =
  let home = assignment.(j) in
  let cap = problem.Rod.Problem.caps.(home) in
  let row = problem.Rod.Problem.lo.(j) in
  let l = Rod.Problem.total_coefficients problem in
  let c_total = Rod.Problem.total_capacity problem in
  let dim = Rod.Problem.dim problem in
  let cube = Array.make dim 0. and point = Array.make dim 0. in
  let count = ref 0 in
  for s = 0 to LS.n_samples scorer - 1 do
    let h = LS.sample_load scorer ~node:home s in
    if LS.sample_violations scorer s = 1 && h > cap then begin
      Feasible.Halton.point_into cube s;
      Feasible.Simplex.sample_ideal_into ~l ~c_total ~cube_point:cube
        ~scratch:cube point;
      let acc = ref 0. in
      for k = 0 to dim - 1 do
        acc := !acc +. (row.(k) *. point.(k))
      done;
      if h -. !acc <= cap then incr count
    end
  done;
  !count

(* The margin-repair phase as the replanner ran it before it cached the
   largest utilizations off the hot node: every (operator, target)
   candidate folds the maximum over all other nodes, O(hot_ops * n^2)
   per step. *)
module Replanner = Dynamic.Replanner

let utilizations problem ~assignment ~rates =
  let n = Rod.Problem.n_nodes problem in
  let u = Array.make n 0. in
  Array.iteri
    (fun j node ->
      u.(node) <-
        u.(node) +. Linalg.Vec.dot (Rod.Problem.op_load problem j) rates)
    assignment;
  let caps = problem.Rod.Problem.caps in
  Array.iteri (fun i load -> u.(i) <- load /. caps.(i)) u;
  u

let repair_margin problem scorer ~assignment ~rates ~cost_of budget =
  let caps = problem.Rod.Problem.caps in
  let m = Rod.Problem.n_ops problem in
  let n = Rod.Problem.n_nodes problem in
  let acc = ref [] in
  let budget = ref budget in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    continue_ := false;
    let u = utilizations problem ~assignment ~rates in
    let cur = Array.fold_left Float.max 0. u in
    if cur > 1. then begin
      let hot = ref 0 in
      Array.iteri (fun i ui -> if ui > u.(!hot) then hot := i) u;
      let hot = !hot in
      let best = ref None in
      for j = 0 to m - 1 do
        if assignment.(j) = hot then begin
          let demand = Linalg.Vec.dot (Rod.Problem.op_load problem j) rates in
          for i = 0 to n - 1 do
            if i <> hot then begin
              let u_hot = u.(hot) -. (demand /. caps.(hot))
              and u_dst = u.(i) +. (demand /. caps.(i)) in
              let nm = ref (Float.max u_hot u_dst) in
              Array.iteri
                (fun k uk -> if k <> hot && k <> i then nm := Float.max !nm uk)
                u;
              if
                !nm < cur
                &&
                match !best with Some (bm, _, _) -> !nm < bm | None -> true
              then best := Some (!nm, j, i)
            end
          done
        end
      done;
      match !best with
      | None -> ()
      | Some (_, j, i) ->
        let gain = LS.gain scorer j ~to_node:i in
        LS.move scorer j ~from_node:hot ~to_node:i;
        assignment.(j) <- i;
        acc :=
          {
            Replanner.op = j;
            from_node = hot;
            to_node = i;
            gain;
            cost = cost_of j;
          }
          :: !acc;
        decr budget;
        continue_ := true
    end
  done;
  (!budget, List.rev !acc)
