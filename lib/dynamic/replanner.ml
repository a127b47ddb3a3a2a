(* rodlint: deterministic *)

module Vec = Linalg.Vec
module Local_search = Rod.Local_search

type move = {
  op : int;
  from_node : int;
  to_node : int;
  gain : int;
  cost : float;
}

type outcome = {
  accepted : bool;
  moves : move list;
  ratio_before : float;
  ratio_after : float;
  margin_before : Margin.t option;
  margin_after : Margin.t option;
  samples : int;
  cost : float;
}

(* Per-node utilization of a raw assignment at a rate point. *)
let utilizations problem ~assignment ~rates =
  let n = Rod.Problem.n_nodes problem in
  let u = Array.make n 0. in
  Array.iteri
    (fun j node ->
      u.(node) <- u.(node) +. Vec.dot (Rod.Problem.op_load problem j) rates)
    assignment;
  let caps = problem.Rod.Problem.caps in
  Array.iteri (fun i load -> u.(i) <- load /. caps.(i)) u;
  u

let max_utilization = Array.fold_left Float.max 0.

(* Phase 1: while the placement is infeasible at [rates], move the
   operator off the hottest node whose relocation minimizes the
   resulting maximum utilization.  Strict improvement required;
   first-found tie-break (lowest op, then lowest node).  Of the nodes
   other than [hot] and the target [i], a candidate's resulting maximum
   needs only the largest utilization: the largest off [hot], or the
   second largest when the largest sits on [i].  Both are found once
   per step; a max is order-independent, so this equals the fold over
   every other node. *)
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
    let cur = max_utilization u in
    if cur > 1. then begin
      let hot = ref 0 in
      Array.iteri (fun i ui -> if ui > u.(!hot) then hot := i) u;
      let hot = !hot in
      let top1 = ref Float.neg_infinity and top1_at = ref (-1) in
      let top2 = ref Float.neg_infinity in
      Array.iteri
        (fun k uk ->
          if k <> hot then
            if uk > !top1 then begin
              top2 := !top1;
              top1 := uk;
              top1_at := k
            end
            else if uk > !top2 then top2 := uk)
        u;
      (* Best (resulting-max, op, dest); strict [<] keeps the first. *)
      let best = ref None in
      for j = 0 to m - 1 do
        if assignment.(j) = hot then begin
          let demand = Vec.dot (Rod.Problem.op_load problem j) rates in
          for i = 0 to n - 1 do
            if i <> hot then begin
              let u_hot = u.(hot) -. (demand /. caps.(hot))
              and u_dst = u.(i) +. (demand /. caps.(i)) in
              let rest = if i = !top1_at then !top2 else !top1 in
              let nm = Float.max (Float.max u_hot u_dst) rest in
              if
                nm < cur
                &&
                match !best with Some (bm, _, _) -> nm < bm | None -> true
              then best := Some (nm, j, i)
            end
          done
        end
      done;
      match !best with
      | None -> ()
      | Some (_, j, i) ->
        let gain = Local_search.gain scorer j ~to_node:i in
        Local_search.move scorer j ~from_node:hot ~to_node:i;
        assignment.(j) <- i;
        acc := { op = j; from_node = hot; to_node = i; gain; cost = cost_of j }
               :: !acc;
        decr budget;
        continue_ := true
    end
  done;
  (!budget, List.rev !acc)

(* Phase 2: greedy positive-gain relocations ranked by
   gain / (1 + cost).  [relocation_positive_bound] proves most
   operators skippable; its bound also prunes operators that cannot
   beat the running best, and [best_relocation] scores the rest.  Costs
   are finite and nonnegative, so an operator's score grows with its
   gain and its best target is [best_relocation]'s.  First-found
   tie-break (lowest op, then lowest node). *)
let polish_volume problem scorer ~assignment ~cost_of budget =
  let m = Rod.Problem.n_ops problem in
  let acc = ref [] in
  let budget = ref budget in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    continue_ := false;
    (* Best (score, gain, op, dest); strict [>] keeps the first. *)
    let best = ref None in
    for j = 0 to m - 1 do
      let denom = 1. +. cost_of j in
      let bound = Local_search.relocation_positive_bound scorer j in
      let beats_best =
        match !best with
        | Some (bs, _, _, _) -> float_of_int bound /. denom > bs
        | None -> bound > 0
      in
      if beats_best then begin
        let g = Local_search.best_relocation scorer j in
        if g > 0 then begin
          let score = float_of_int g /. denom in
          match !best with
          | Some (bs, _, _, _) when score <= bs -> ()
          | _ -> best := Some (score, g, j, Local_search.best_target scorer)
        end
      end
    done;
    match !best with
    | None -> ()
    | Some (_, gain, j, i) ->
      let from_node = assignment.(j) in
      Local_search.move scorer j ~from_node ~to_node:i;
      assignment.(j) <- i;
      acc := { op = j; from_node; to_node = i; gain; cost = cost_of j } :: !acc;
      decr budget;
      continue_ := true
  done;
  (!budget, List.rev !acc)

let replan ?pool ?(samples = 2048) ?rates ~budget ~cost_of problem ~assignment =
  let m = Rod.Problem.n_ops problem in
  let n = Rod.Problem.n_nodes problem in
  if Array.length assignment <> m then
    invalid_arg "Replanner.replan: assignment length";
  Array.iter
    (fun node ->
      if node < 0 || node >= n then
        invalid_arg "Replanner.replan: assignment node out of range")
    assignment;
  if budget < 0 then invalid_arg "Replanner.replan: negative budget";
  if samples <= 0 then invalid_arg "Replanner.replan: samples must be positive";
  let margin_of a =
    Option.map (fun r -> Margin.of_assignment problem ~assignment:a ~rates:r)
      rates
  in
  let margin_before = margin_of assignment in
  (* The volume-only retry runs only from a plan already past its
     boundary with budget to spend, and only after the first attempt
     fails the gate. *)
  let retry_possible =
    match margin_before with
    | Some mb -> mb.Margin.margin < 0. && budget > 0
    | None -> false
  in
  (* Each attempt starts from the original assignment's state: a
     working copy of the array and a fresh scorer reading it (the
     scorer shares, not copies), both updated by every applied move. *)
  let start () =
    let working = Array.copy assignment in
    (working, Local_search.make_scorer ?pool problem working samples)
  in
  let attempt ~with_repair (working, scorer) =
    let feas_before = Local_search.feasible scorer in
    let left, repair_moves =
      match rates with
      | Some rates when with_repair ->
        repair_margin problem scorer ~assignment:working ~rates ~cost_of budget
      | _ -> (budget, [])
    in
    let _, polish_moves =
      polish_volume problem scorer ~assignment:working ~cost_of left
    in
    let moves = repair_moves @ polish_moves in
    ( working,
      moves,
      feas_before,
      Local_search.feasible scorer,
      Local_search.n_samples scorer )
  in
  let gated (working, moves, feas_before, feas_after, n_samples) =
    let margin_after = margin_of working in
    let margin_ok =
      match (margin_before, margin_after) with
      | Some b, Some a -> a.Margin.margin >= b.Margin.margin
      | _ -> true
    in
    let accepted = moves <> [] && feas_after >= feas_before && margin_ok in
    if accepted then
      Some
        {
          accepted = true;
          moves;
          ratio_before = float_of_int feas_before /. float_of_int n_samples;
          ratio_after = float_of_int feas_after /. float_of_int n_samples;
          margin_before;
          margin_after;
          samples = n_samples;
          cost = List.fold_left (fun s (mv : move) -> s +. mv.cost) 0. moves;
        }
    else None
  in
  let first = attempt ~with_repair:true (start ()) in
  match gated first with
  | Some outcome -> outcome
  | None -> (
    (* The repair phase may trade volume for margin past the gate; a
       volume-only retry can only grow the ratio. *)
    let retry =
      if retry_possible then
        let ((_, moves, _, _, _) as a) =
          attempt ~with_repair:false (start ())
        in
        if moves = [] then None else gated a
      else None
    in
    match retry with
    | Some outcome -> outcome
    | None ->
      let _, _, feas_before, _, n_samples = first in
      let ratio = float_of_int feas_before /. float_of_int n_samples in
      {
        accepted = false;
        moves = [];
        ratio_before = ratio;
        ratio_after = ratio;
        margin_before;
        margin_after = margin_before;
        samples = n_samples;
        cost = 0.;
      })
