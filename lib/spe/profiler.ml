(* rodlint: deterministic *)

type profile_result = {
  graph : Query.Graph.t;
  run : Executor.result;
  estimates : Dsim.Calibrate.estimate array;
}

(* CPU seconds per consumed tuple (per candidate pair for a join), one
   unit per kind.  Calibrated once against the medians of timed replays
   of the example queries and EXPSPE's networks (CHANGES.md has the
   timings); no example has a map, which builds a new tuple like a
   project does. *)
let units =
  [
    ("filter", 6e-8);
    ("map", 7.5e-7);
    ("project", 7.5e-7);
    ("union", 7e-9);
    ("aggregate", 2.5e-7);
    ("join", 2e-7);
    ("distinct", 4.5e-8);
  ]

let unit_cost sop = List.assoc (Sop.kind sop) units

(* The skeleton's selectivity 1 stands in for an operator that did no
   work; its cost is the unit either way. *)
let estimate sop (stat : Executor.op_run_stat) : Dsim.Calibrate.estimate =
  let cost = unit_cost sop in
  let selectivity work =
    if work = 0 then 1. else float_of_int stat.emitted /. float_of_int work
  in
  match sop with
  | Sop.Equi_join _ ->
    {
      costs = [| 0.; 0. |];
      selectivities = [| 0.; 0. |];
      cost_per_pair = Some cost;
      sel_per_pair = Some (selectivity stat.pairs);
      support = stat.pairs;
    }
  | _ ->
    let consumed = Array.fold_left ( + ) 0 stat.consumed in
    let arity = Sop.arity sop in
    {
      costs = Array.make arity cost;
      selectivities = Array.make arity (selectivity consumed);
      cost_per_pair = None;
      sel_per_pair = None;
      support = consumed;
    }

let profile network ~inputs =
  let run = Executor.run network ~inputs in
  let estimates =
    Array.mapi
      (fun j stat -> estimate (Network.op network j) stat)
      run.Executor.stats
  in
  let skeleton =
    Network.skeleton ~costs:(fun j -> unit_cost (Network.op network j)) network
  in
  { graph = Dsim.Calibrate.estimated_graph skeleton estimates; run; estimates }
