(* monitoring-cql: real operator semantics.  examples/queries/
   monitoring.rql (filters, 2 s group-by windows, a 4 s windowed
   equi-join) compiled by the CQL front end, placed on 3 nodes from a
   pinned profiled cost model, and run through [Spe.Dist_executor] on
   two packet feeds over 64 hosts that follow b-model traces at about
   4000 tuples/s each. *)

let name = "monitoring-cql"
let query_path = "examples/queries/monitoring.rql"
let pinned_path = "e2ebench/monitoring.rodgraph"
let n_nodes = 3
let hosts = 64
let rate = 4000.
let bias = 0.65
let levels = 10
let segment_seconds = 1.
let segments = 20
let chunk_seconds = segment_seconds *. float_of_int segments
let chunks = 1
let engine_runs = 1

(* Seconds after the last arrival during which the executor keeps
   serving, so every queued item completes. *)
let drain_seconds = 10.

(* Share of total capacity the mean offered load uses: the caps are
   derived from the pinned cost model so queueing waits are part of
   the measured latency. *)
let load = 0.5
let profile_sample_seconds = 2.
let deploy_samples = 8192
let drift_chains = 1
let drift_points = 12

type env = {
  compiled : Cql.Compile.compiled;
  graph : Query.Graph.t;
  caps : Linalg.Vec.t;
  inputs : Spe.Tuple.t list array array;  (** Per chunk, per feed. *)
  last_outputs : (int * Spe.Tuple.t) list array;
      (** Per chunk, the sink outputs of its latest engine run, for
          [check_engine]. *)
}

let graph env = env.graph
let caps env = env.caps

let compile () =
  match
    Harness.layer "cql.compile_s" (fun () ->
        Cql.Frontend.compile_file ~path:query_path)
  with
  | Ok compiled -> compiled
  | Error e -> failwith (query_path ^ ": " ^ Cql.Frontend.error_to_string e)

let feed_trace ~rng =
  let dt = segment_seconds /. float_of_int (1 lsl levels) in
  let segment () =
    Workload.Bmodel.trace ~rng ~bias ~levels ~mean_rate:rate ~dt
  in
  let rec build acc k =
    if k = 0 then acc else build (Workload.Trace.concat acc (segment ())) (k - 1)
  in
  build (segment ()) (segments - 1)

(* As in compliance-burst, the burst envelope of each feed is part of
   the workload's definition ([envelope] is fixed per chunk); [rng], the
   run's seed, draws the Poisson arrivals under it and every packet's
   fields. *)
let feeds ~envelope ~rng =
  Harness.layer "spe.datagen_s" (fun () ->
      Array.init 2 (fun _ ->
          let trace =
            Harness.layer "workload.trace_gen_s" (fun () ->
                feed_trace ~rng:envelope)
          in
          Spe.Datagen.packets ~rng ~trace ~hosts ()))

(* The pinned graph must still describe the compiled network: same
   inputs, operator names, wiring and operator kinds. *)
let wiring_matches (pinned : Query.Graph.t) network =
  let skeleton = Spe.Network.skeleton network in
  let n = Query.Graph.n_ops skeleton in
  Query.Graph.n_inputs pinned = Query.Graph.n_inputs skeleton
  && Query.Graph.n_ops pinned = n
  && List.for_all
       (fun j ->
         let a = Query.Graph.op pinned j and b = Query.Graph.op skeleton j in
         a.Query.Op.name = b.Query.Op.name
         && Query.Graph.sources pinned j = Query.Graph.sources skeleton j
         && Query.Op.is_nonlinear a = Query.Op.is_nonlinear b)
       (List.init n Fun.id)

let prefix ~seconds tuples = List.filter (fun t -> Spe.Tuple.ts t < seconds) tuples

(* Capacity per node such that the mean offered load is [load] of the
   cluster total, under the pinned per-tuple costs. *)
let derive_caps graph =
  let model = Query.Load_model.derive graph in
  let sys_rates = Linalg.Vec.create (Query.Graph.n_inputs graph) rate in
  let total = ref 0. in
  for j = 0 to Query.Graph.n_ops graph - 1 do
    total := !total +. Query.Load_model.op_load_at model ~sys_rates j
  done;
  Rod.Problem.homogeneous_caps ~n:n_nodes
    ~cap:(!total /. (load *. float_of_int n_nodes))

let setup ~seed =
  let compiled = compile () in
  let graph =
    Harness.layer "query.graph_build_s" (fun () ->
        Query.Graph_io.load ~path:pinned_path)
  in
  if not (wiring_matches graph compiled.Cql.Compile.network) then
    failwith
      (pinned_path ^ " no longer matches the wiring of " ^ query_path
     ^ "; regenerate it with --pin-monitoring");
  let inputs =
    Array.init chunks (fun chunk ->
        feeds
          ~envelope:(Random.State.make [| chunk; 0xb0de1 |])
          ~rng:(Random.State.make [| seed; chunk; 0x5eed |]))
  in
  (* Profiling is timed as part of set-up only: its wall-clock costs
     differ run to run, so placement uses the pinned model instead. *)
  let sample = Array.map (prefix ~seconds:profile_sample_seconds) inputs.(0) in
  ignore
    (Harness.layer "spe.profile_s" (fun () ->
         Spe.Profiler.profile compiled.Cql.Compile.network ~inputs:sample));
  {
    compiled;
    graph;
    caps = derive_caps graph;
    inputs;
    last_outputs = Array.make chunks [];
  }

let sum_stats f stats =
  Array.fold_left (fun acc (s : Spe.Executor.op_run_stat) -> acc + f s) 0 stats

let engine env (dep : Deploy.t) ~chunk =
  let r =
    Harness.layer "spe.dist_run_s" (fun () ->
        Spe.Dist_executor.run ~network:env.compiled.Cql.Compile.network
          ~assignment:(Deploy.assignment dep) ~caps:env.caps
          ~cost:(Spe.Dist_executor.cost_model_of_graph env.graph)
          ~inputs:env.inputs.(chunk)
          ~config:{ Spe.Dist_executor.default_config with warmup = 0. }
          ~until:(chunk_seconds +. drain_seconds)
          ())
  in
  let stats = r.Spe.Dist_executor.op_stats in
  let items =
    sum_stats
      (fun s -> Array.fold_left ( + ) 0 s.Spe.Executor.consumed)
      stats
  in
  let pairs = sum_stats (fun s -> s.Spe.Executor.pairs) stats in
  let latencies = r.Spe.Dist_executor.latencies in
  Harness.check "monitoring-cql run drained every work item"
    (r.Spe.Dist_executor.backlog = 0 && r.Spe.Dist_executor.lost = 0);
  env.last_outputs.(chunk) <- r.Spe.Dist_executor.outputs;
  {
    Workload_sig.items;
    latencies;
    fingerprint =
      Printf.sprintf "arrivals=%d items=%d outputs=%d pairs=%d p50=%h p99=%h"
        r.Spe.Dist_executor.arrivals items
        (List.length r.Spe.Dist_executor.outputs)
        pairs
        (Obs.Samples.percentile latencies 50.)
        (Obs.Samples.percentile latencies 99.);
    counters =
      [ ("spe.items", float_of_int items); ("spe.join_pairs", float_of_int pairs) ];
  }

let output_key (op, tuple) =
  Format.asprintf "%d %h %a" op (Spe.Tuple.ts tuple) Spe.Tuple.pp tuple

(* Sorted multiset difference: elements of [a] not matched in [b]. *)
let rec minus a b =
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | x :: a', y :: b' ->
    let c = String.compare x y in
    if c = 0 then minus a' b' else if c < 0 then x :: minus a' b else minus a b'

(* The distributed sink multiset must equal the logical executor's
   outputs on the same inputs, minus the end-of-stream window flush the
   distributed engine never performs: nothing may appear only in the
   distributed run, and everything seen only in the logical run must
   carry a timestamp past the last input tuple. *)
let check_engine env _dep ~chunk (_ : Workload_sig.engine_run) =
  let inputs = env.inputs.(chunk) in
  let logical =
    Harness.layer "spe.reference_s" (fun () ->
        Spe.Executor.run env.compiled.Cql.Compile.network ~inputs)
  in
  Harness.layer "bench.check_s" (fun () ->
      let keys outputs =
        List.sort String.compare (List.map output_key outputs)
      in
      let ts_of = Hashtbl.create 64 in
      List.iter
        (fun o -> Hashtbl.replace ts_of (output_key o) (Spe.Tuple.ts (snd o)))
        logical.Spe.Executor.outputs;
      let logical = keys logical.Spe.Executor.outputs in
      let distributed = keys env.last_outputs.(chunk) in
      let last_input =
        Array.fold_left
          (fun acc feed ->
            List.fold_left (fun acc t -> Float.max acc (Spe.Tuple.ts t)) acc feed)
          neg_infinity inputs
      in
      Harness.check "monitoring-cql produced alerts" (distributed <> []);
      Harness.check "no output appears only in the distributed run"
        (minus distributed logical = []);
      Harness.check
        "outputs only in the logical run all come from the final flush"
        (List.for_all
           (fun key -> Hashtbl.find ts_of key > last_input)
           (minus logical distributed)))
