(* rodlint: obs *)

module Graph = Query.Graph
module Kernel = Dsim.Kernel
module Samples = Obs.Samples

let obs_runs = Obs.counter ~help:"SPE distributed runs" "rod_spe_runs_total"

let obs_arrivals =
  Obs.counter ~help:"Source tuples injected (measured window)"
    "rod_spe_arrivals_total"

let obs_outputs =
  Obs.counter ~help:"Tuples emitted by sinks (measured window)"
    "rod_spe_outputs_total"

let obs_lost =
  Obs.counter ~help:"Tuples destroyed by injected faults" "rod_spe_lost_total"

type config = {
  net_delay : float;
  warmup : float;
  faults : Dsim.Fault.schedule;
}

let default_config = { net_delay = 1e-3; warmup = 0.; faults = Dsim.Fault.none }

type migration_timing = Kernel.timing = {
  drain_delay : float;
  handoff_delay : float;
  state_delay : int -> float;
}

let default_timing =
  { drain_delay = 0.05; handoff_delay = 0.3; state_delay = (fun _ -> 0.) }

type result = {
  outputs : (int * Tuple.t) list;
  utilization : float array;
  latencies : Samples.t;
  arrivals : int;
  backlog : int;
  lost : int;
  migrations : int;
  op_stats : Executor.op_run_stat array;
}

let cost_model_of_graph graph op input_idx =
  match (Graph.op graph op).Query.Op.kind with
  | Query.Op.Linear { costs; _ } -> costs.(input_idx)
  | Query.Op.Join { cost_per_pair; _ } -> cost_per_pair
  | Query.Op.Var_selectivity { cost; _ } -> cost

let run ~network ~assignment ~caps ~cost ~inputs ?(config = default_config)
    ?(migrations = []) ?(timing = default_timing) ~until () =
  let m = Network.n_ops network in
  let n = Linalg.Vec.dim caps in
  if Array.length inputs <> Network.n_inputs network then
    invalid_arg "Dist_executor.run: one tuple list per input stream";
  if timing.drain_delay < 0. || timing.handoff_delay < 0. then
    invalid_arg "Dist_executor.run: negative migration timing";
  List.iter
    (fun (_, moves) ->
      List.iter
        (fun (op, dest) ->
          if op < 0 || op >= m || dest < 0 || dest >= n then
            invalid_arg "Dist_executor.run: bad migration")
        moves)
    migrations;
  let states = Array.init m (fun j -> Executor.replay_state (Network.op network j)) in
  let stats = Array.init m (fun j -> Executor.replay_stat (Network.op network j)) in
  let outputs = ref [] in
  let latencies = Samples.create () in
  (* Output tuples of each node's item in service, computed when its
     service starts. *)
  let produced = Array.make n [] in
  let serve _ node _ (item : Tuple.t Kernel.item) =
    let sop = Network.op network item.op in
    let stat = stats.(item.op) in
    let pairs_before = stat.Executor.pairs in
    let out =
      Executor.replay_process sop states.(item.op) stat item.input_idx item.data
    in
    (* [replay_process] maintains only [pairs]; the consumed/emitted
       counters are the caller's job (as in [Executor.run]'s own loop). *)
    stat.Executor.consumed.(item.input_idx) <-
      stat.Executor.consumed.(item.input_idx) + 1;
    stat.Executor.emitted <- stat.Executor.emitted + List.length out;
    produced.(node) <- out;
    match sop with
    | Sop.Equi_join _ ->
      cost item.op item.input_idx
      *. float_of_int (stat.Executor.pairs - pairs_before)
    | _ -> cost item.op item.input_idx
  in
  let complete k node now (item : Tuple.t Kernel.item) =
    let out = produced.(node) in
    if Kernel.is_sink k item.op then begin
      if Kernel.measured k now then
        List.iter
          (fun t ->
            outputs := (item.op, t) :: !outputs;
            Samples.add latencies (now -. item.origin))
          out
    end
    else List.iter (fun t -> Kernel.emit k now item t) out
  in
  (* The control hook runs the scripted migrations: tag [i] is the
     [i]th entry. *)
  let script = Array.of_list migrations in
  let control k now i =
    List.iter (fun (op, dest) -> Kernel.migrate k now op dest) (snd script.(i))
  in
  (* Source tuples wait in the merge, not in the event heap. *)
  let k =
    Kernel.create ~name:"Dist_executor.run" ~cat:"spe" ~caps ~assignment
      ~readers:(Network.readers network)
      ~sources:(Dsim.Source_merge.create ~ts:Tuple.ts ~until inputs)
      ~net_delay:config.net_delay ~warmup:config.warmup ~until
      ~faults:config.faults ~shed_above:None ~timing ~op_service:[||]
      { Kernel.serve; complete; control }
  in
  (* The crashes go before the scripted migrations: on a tie they run
     first. *)
  Kernel.arm_faults k;
  Array.iteri
    (fun i (at, _) -> if at <= until then Kernel.at_control k at i)
    script;
  Kernel.run k;
  let utilization = Kernel.utilization k in
  let outputs_count = List.length !outputs in
  let lost = Kernel.lost k in
  Obs.Counter.incr obs_runs;
  Obs.Counter.add obs_arrivals (Kernel.arrivals k);
  Obs.Counter.add obs_outputs outputs_count;
  Obs.Counter.add obs_lost lost;
  for i = 0 to n - 1 do
    let labels = [ ("node", string_of_int i) ] in
    Obs.Gauge.set
      (Obs.gauge ~labels ~help:"Busy fraction over the measured window"
         "rod_spe_node_utilization")
      utilization.(i);
    Obs.Gauge.set
      (Obs.gauge ~labels ~help:"Work items still queued at run end"
         "rod_spe_node_queue_depth")
      (float_of_int (Kernel.queue_length k i))
  done;
  Obs.emit ~cat:"spe"
    ~args:
      [
        ("arrivals", string_of_int (Kernel.arrivals k));
        ("outputs", string_of_int outputs_count);
        ("lost", string_of_int lost);
      ]
    ~ts:0. ~dur:until "spe.run";
  {
    outputs = List.rev !outputs;
    utilization;
    latencies;
    arrivals = Kernel.arrivals k;
    backlog = Kernel.backlog k;
    lost;
    migrations = Kernel.migrations k;
    op_stats = stats;
  }
