(* The drift chain shared by every workload: a seeded sequence of rate
   points, each drawn relative to the current deployment's feasibility
   boundary, fed through [Deploy.replan].

   Each point lies along a single-stream-heavy direction (one input
   stream weighted 2-4x the others) at a fixed share of the current
   deployment's headroom along it: every third point sits just past the
   boundary (so the replanner's margin-repair phase runs), the others
   inside it (volume polish only).  Total load stays below total
   capacity, so every point is reachable by some placement.

   Quality is judged on [Deploy.expected_utilization] at the point —
   whether the replanned deployment keeps every node at or below
   capacity — not on the deployment's [ratio]; see NOTES.md. *)

module Vec = Linalg.Vec

let budget = 3

type step = {
  point : Vec.t;
  before : Deploy.t;  (** The deployment the replan started from. *)
  outcome : Dynamic.Replanner.outcome;
  assignment : int array;  (** After the replan. *)
  feasible : bool;  (** Max expected utilization at [point] <= 1. *)
  gate_ok : bool;  (** The replanned deployment's Plan_check report passes. *)
  seconds : float;  (** Wall time of the [Deploy.replan] call. *)
}

let mean_utilization (dep : Deploy.t) ~rates =
  let caps = dep.Deploy.problem.Rod.Problem.caps in
  let u = Deploy.expected_utilization dep ~rates in
  let used = ref 0. in
  Array.iteri (fun i ui -> used := !used +. (ui *. caps.(i))) u;
  !used /. Rod.Problem.total_capacity dep.Deploy.problem

let draw_point ~rng (dep : Deploy.t) i =
  let d = Query.Graph.n_inputs dep.Deploy.graph in
  let heavy = Random.State.int rng d in
  let weight = 2. +. Random.State.float rng 2. in
  let direction = Vec.init d (fun k -> if k = heavy then weight else 1.) in
  let past = i mod 3 = 2 in
  let share =
    if past then 1.01 +. Random.State.float rng 0.02
    else 0.80 +. Random.State.float rng 0.17
  in
  let h =
    Harness.layer "deploy.geometry_s" (fun () ->
        Deploy.headroom dep ~direction)
  in
  let point = Vec.scale (share *. h) direction in
  (* Keep total load under total capacity (the point stays past the
     boundary: the boundary's mean utilization is below 1). *)
  let mean =
    Harness.layer "deploy.geometry_s" (fun () ->
        mean_utilization dep ~rates:point)
  in
  if mean > 0.98 then Vec.scale (0.98 /. mean) point else point

(* One chain over [n_points] drift points starting from [start].  The
   points depend only on [rng]'s seed and on the deployments the chain
   produces, so rerunning a chain must reproduce it exactly. *)
let chain ~rng ~n_points (start : Deploy.t) =
  let rec go i dep acc =
    if i = n_points then List.rev acc
    else
      let point = draw_point ~rng dep i in
      let (dep', outcome), seconds =
        Harness.sample (fun () ->
            Harness.layer "dynamic.replan_s" (fun () ->
                Deploy.replan ~budget dep ~rates:point))
      in
      let u =
        Harness.layer "deploy.geometry_s" (fun () ->
            Deploy.expected_utilization dep' ~rates:point)
      in
      let step =
        {
          point;
          before = dep;
          outcome;
          assignment = Deploy.assignment dep';
          feasible = Vec.max_elt u <= 1.;
          gate_ok = Analysis.Plan_check.ok dep'.Deploy.analysis;
          seconds;
        }
      in
      go (i + 1) dep' (step :: acc)
  in
  go 0 start []

(* One pass: [chains] independent chains of [n_points] points, each
   from [start].  The replanner accepts moves only while the start plan
   has improving moves left within the budget: on compliance-burst a
   12-point chain accepted 4 or 6 replans, depending on the seed, and
   rejected replans take half as long, so the median replan time flipped
   between the two.  Several short chains replan the start plan each
   time. *)
let pass ~seed ~chains ~n_points start =
  List.concat
    (List.init chains (fun c ->
         chain ~rng:(Random.State.make [| seed; c; 0xd41f7 |]) ~n_points start))

let accepted step = step.outcome.Dynamic.Replanner.accepted

(* Output checks on one pass: every accepted replan passed the static
   gate and moved at most [budget] operators, and a rejected one changed
   nothing. *)
let check_pass steps =
  let moved a b =
    let n = ref 0 in
    Array.iteri (fun j x -> if x <> b.(j) then incr n) a;
    !n
  in
  List.iter
    (fun step ->
      let prev = Deploy.assignment step.before in
      if accepted step then begin
        Harness.check "accepted replan keeps a passing Plan_check report"
          step.gate_ok;
        Harness.check "accepted replan stays within the move budget"
          (moved prev step.assignment <= budget
          && List.length step.outcome.Dynamic.Replanner.moves <= budget)
      end
      else
        Harness.check "rejected replan leaves the assignment unchanged"
          (step.assignment = prev))
    steps

(* A rerun pass reproduces the first replan for replan. *)
let same_pass a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.point = y.point && x.assignment = y.assignment
         && x.feasible = y.feasible && accepted x = accepted y)
       a b

let feasible_frac steps =
  let ok = List.length (List.filter (fun s -> s.feasible) steps) in
  float_of_int ok /. float_of_int (List.length steps)

let accept_frac steps =
  let ok =
    List.length
      (List.filter accepted steps)
  in
  float_of_int ok /. float_of_int (List.length steps)

let total_moves steps =
  List.fold_left
    (fun acc s -> acc + List.length s.outcome.Dynamic.Replanner.moves)
    0 steps
