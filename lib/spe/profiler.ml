type op_profile = {
  cost : float;
  selectivity : float;
  consumed : int;
  emitted : int;
  pairs : int;
}

type profile_result = {
  graph : Query.Graph.t;
  run : Executor.result;
  per_op : op_profile array;
}

let placeholder_cost = 1e-6

(* Wall-clock of replaying one operator's recorded input log [replays]
   times over fresh state.  The throwaway stat keeps [process]'s
   signature happy without polluting the measured run's counters.
   The [Unix.gettimeofday] reads below are the repo's one sanctioned
   use of the wall clock (rodcheck.allow: determinism/wallclock) —
   measuring real elapsed time is exactly what a profiler is for. *)
let time_replays sop log replays =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to replays do
    let state = Executor.replay_state sop in
    let stat = Executor.replay_stat sop in
    List.iter
      (fun (input_idx, tuple) ->
        ignore (Executor.replay_process sop state stat input_idx tuple))
      log
  done;
  Unix.gettimeofday () -. t0

let profile ?(replays = 20) network ~inputs =
  if replays < 1 then invalid_arg "Profiler.profile: replays < 1";
  let run = Executor.run ~record:true network ~inputs in
  let logs =
    match run.Executor.recorded with Some l -> l | None -> assert false
  in
  let m = Network.n_ops network in
  let per_op =
    Array.init m (fun j ->
        let sop = Network.op network j in
        let stat = run.Executor.stats.(j) in
        let consumed = Array.fold_left ( + ) 0 stat.Executor.consumed in
        let emitted = stat.Executor.emitted in
        let pairs = stat.Executor.pairs in
        let divisor =
          match sop with Sop.Equi_join _ -> pairs | _ -> consumed
        in
        let cost =
          if divisor = 0 then placeholder_cost
          else
            let elapsed = time_replays sop logs.(j) replays in
            elapsed /. float_of_int (replays * divisor)
        in
        let selectivity =
          if divisor = 0 then 1.
          else float_of_int emitted /. float_of_int divisor
        in
        { cost; selectivity; consumed; emitted; pairs })
  in
  let cost_op j =
    let sop = Network.op network j in
    let p = per_op.(j) in
    match sop with
    | Sop.Filter _ | Sop.Map _ | Sop.Project _ | Sop.Distinct _ ->
      Query.Op.filter ~name:(Sop.name sop) ~cost:p.cost ~sel:p.selectivity ()
    | Sop.Aggregate _ ->
      Query.Op.aggregate ~name:(Sop.name sop) ~cost:p.cost ~sel:p.selectivity ()
    | Sop.Union { arity; _ } ->
      Query.Op.union ~name:(Sop.name sop) ~cost:p.cost ~n_inputs:arity ()
    | Sop.Equi_join { window; _ } ->
      Query.Op.join ~name:(Sop.name sop) ~window ~cost_per_pair:p.cost
        ~sel:p.selectivity ()
  in
  let graph =
    Query.Graph.create
      ~n_inputs:(Network.n_inputs network)
      ~ops:(List.init m (fun j -> (cost_op j, Network.sources network j)))
      ()
  in
  { graph; run; per_op }

(* Same sanctioned wall-clock read, packaged as an injectable telemetry
   clock (see the note above time_replays). *)
let wall_clock = Obs.Clock.of_fun Unix.gettimeofday
