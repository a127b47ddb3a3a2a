(* rodlint: obs *)
(* rodlint: deterministic *)

module Vec = Linalg.Vec
module Graph = Query.Graph
module Op = Query.Op

let obs_runs = Obs.counter ~help:"Simulator runs completed" "rod_sim_runs_total"

let obs_events =
  Obs.counter ~help:"Simulator events processed" "rod_sim_events_total"

let obs_migrations =
  Obs.counter ~help:"Operator migrations started" "rod_sim_migrations_total"

let obs_lost =
  Obs.counter ~help:"Work items destroyed by injected faults"
    "rod_sim_lost_total"

let obs_queue_depth =
  Obs.gauge ~help:"Event-queue depth after the last event pop"
    "rod_sim_event_queue_depth"

let obs_sink_latency =
  Obs.histogram ~help:"End-to-end latency of sink outputs (seconds)"
    "rod_sim_sink_latency_seconds"

type config = {
  net_delay : float;
  seed : int;
  warmup : float;
  shed_above : int option;
  faults : Fault.schedule;
}

let default_config =
  {
    net_delay = 1e-3;
    seed = 0x5eed;
    warmup = 0.;
    shed_above = None;
    faults = Fault.none;
  }

type dynamic_config = {
  interval : float;
  migration_delay : float;
  drain_delay : float;
  state_delay : int -> float;
  decide :
    time:float ->
    utilization:float array ->
    op_cpu:float array ->
    rates:float array ->
    assignment:int array ->
    (int * int) list;
}

(* Per-op service-time histograms, resolved once per process and grown
   on demand, so a run neither registers m instruments nor touches the
   registry lock.  Registrations survive [Obs.reset] and get-or-create
   returns one instrument per key, so a cached handle is the one a
   fresh registration would return. *)
let op_service_cache = Atomic.make [||]

let op_service_histograms m =
  let cached = Atomic.get op_service_cache in
  let have = Array.length cached in
  if have >= m then cached
  else begin
    let grown =
      Array.init m (fun j ->
          if j < have then cached.(j)
          else
            Obs.histogram
              ~labels:[ ("op", string_of_int j) ]
              ~help:"Service wall time per work item (seconds)"
              "rod_sim_op_service_seconds")
    in
    ignore (Atomic.compare_and_set op_service_cache cached grown : bool);
    grown
  end

let bernoulli rng p = Random.State.float rng 1. < p

(* Output count of a linear operator with the given selectivity. *)
let emit_count rng sel =
  let base = int_of_float (floor sel) in
  let frac = sel -. float_of_int base in
  base + if frac > 0. && bernoulli rng frac then 1 else 0

let binomial rng n p =
  if p <= 0. || n = 0 then 0
  else if p >= 1. then n
  else begin
    let count = ref 0 in
    for _ = 1 to n do
      if bernoulli rng p then incr count
    done;
    !count
  end

let run ~graph ~assignment ~caps ~arrivals ?(config = default_config) ?dynamic
    ~until () =
  let m = Graph.n_ops graph in
  let d = Graph.n_inputs graph in
  let n = Vec.dim caps in
  if Array.length arrivals <> d then
    invalid_arg "Engine.run: arrivals per input stream expected";
  (match dynamic with
  | Some dc
    when dc.interval <= 0. || dc.migration_delay < 0. || dc.drain_delay < 0. ->
    invalid_arg "Engine.run: bad dynamic config"
  | Some _ | None -> ());
  let rng = Random.State.make [| config.seed |] in
  (* Sliding windows of each join: tuple timestamps per input side. *)
  let sides =
    Array.init m (fun j ->
        match (Graph.op graph j).Op.kind with
        | Op.Join _ -> [| Queue.create (); Queue.create () |]
        | Op.Linear _ | Op.Var_selectivity _ -> [||])
  in
  let op_stats =
    Array.init m (fun j ->
        Sim_metrics.make_op_stat ~arity:(Op.arity (Graph.op graph j)))
  in
  let latencies = Sim_metrics.Samples.create () in
  let items_processed = ref 0 in
  let outputs_count = ref 0 in
  (* The outcome of each node's item in service, decided when its
     service begins: CPU seconds, output tuples and join candidate
     pairs examined. *)
  let cpu = Array.make n 0. in
  let emitted = Array.make n 0 in
  let pairs = Array.make n 0 in
  let serve _ node now (item : float Kernel.item) =
    let i = item.input_idx in
    (match (Graph.op graph item.op).Op.kind with
    | Op.Linear { costs; selectivities } ->
      cpu.(node) <- costs.(i);
      emitted.(node) <- emit_count rng selectivities.(i);
      pairs.(node) <- 0
    | Op.Var_selectivity { cost; sel_now; _ } ->
      cpu.(node) <- cost;
      emitted.(node) <- emit_count rng sel_now;
      pairs.(node) <- 0
    | Op.Join { cost_per_pair; sel_per_pair; window } ->
      (* Tuples pair when their timestamps differ by at most window/2:
         both sides probe, each candidate pair is examined exactly once
         (when its later tuple arrives), and the pair rate is
         w * r_u * r_v — matching the load model of §6.2. *)
      let horizon = now -. (window /. 2.) in
      let sides = sides.(item.op) in
      Array.iter
        (fun q ->
          while (not (Queue.is_empty q)) && Queue.peek q < horizon do
            ignore (Queue.pop q)
          done)
        sides;
      let candidates = Queue.length sides.(1 - i) in
      Queue.add now sides.(i);
      cpu.(node) <- cost_per_pair *. float_of_int candidates;
      emitted.(node) <- binomial rng candidates sel_per_pair;
      pairs.(node) <- candidates);
    cpu.(node)
  in
  let op_cpu_window = Array.make m 0. in
  let complete k node now (item : float Kernel.item) =
    let count = emitted.(node) and measured = Kernel.measured k now in
    op_cpu_window.(item.op) <- op_cpu_window.(item.op) +. cpu.(node);
    if measured then begin
      incr items_processed;
      let stat = op_stats.(item.op) in
      stat.Sim_metrics.consumed.(item.input_idx) <-
        stat.Sim_metrics.consumed.(item.input_idx) + 1;
      stat.Sim_metrics.emitted.(item.input_idx) <-
        stat.Sim_metrics.emitted.(item.input_idx) + count;
      stat.Sim_metrics.cpu.(item.input_idx) <-
        stat.Sim_metrics.cpu.(item.input_idx) +. cpu.(node);
      stat.Sim_metrics.pairs <- stat.Sim_metrics.pairs + pairs.(node)
    end;
    if Kernel.is_sink k item.op then begin
      (* Sink operator: outputs leave the system. *)
      if measured then begin
        outputs_count := !outputs_count + count;
        for _ = 1 to count do
          Sim_metrics.Samples.add latencies (now -. item.origin);
          Obs.Histogram.observe obs_sink_latency (now -. item.origin)
        done
      end
    end
    else
      for _ = 1 to count do
        Kernel.emit k now item item.data
      done
  in
  (* Source arrivals wait in the merge, not in the event heap; an
     item's data is the timestamp of its source arrival. *)
  let sources = Source_merge.create ~ts:Fun.id ~until arrivals in
  (* The dynamic controller's periodic wake-up. *)
  let control =
    match dynamic with
    | None -> fun _ _ _ -> ()
    | Some dc ->
      let last_busy = Array.make n 0. in
      (* Per-stream cursors over the merge's sorted arrivals for the
         controller's rate gauges. *)
      let rate_cursor = Array.make d 0 in
      let input_rate_gauges =
        Array.init d (fun k ->
            Obs.gauge
              ~labels:[ ("stream", string_of_int k) ]
              ~help:"Observed input rate over the last control interval (tuples/s)"
              "rod_sim_input_rate")
      in
      fun kernel now _ ->
        let utilization =
          Array.init n (fun i ->
              let busy = Kernel.busy_total kernel i in
              let used = (busy -. last_busy.(i)) /. dc.interval in
              last_busy.(i) <- busy;
              Float.min 1. used)
        in
        let rates =
          Array.mapi
            (fun k times ->
              let c = ref rate_cursor.(k) in
              while !c < Array.length times && times.(!c) <= now do
                incr c
              done;
              let count = !c - rate_cursor.(k) in
              rate_cursor.(k) <- !c;
              let r = float_of_int count /. dc.interval in
              Obs.Gauge.set input_rate_gauges.(k) r;
              r)
            (Source_merge.times sources)
        in
        let decisions =
          dc.decide ~time:now ~utilization ~op_cpu:(Array.copy op_cpu_window)
            ~rates ~assignment:(Kernel.assignment kernel)
        in
        Array.fill op_cpu_window 0 m 0.;
        List.iter
          (fun (op, dest) -> Kernel.migrate kernel now op dest)
          decisions;
        if now +. dc.interval <= until then
          Kernel.at_control kernel (now +. dc.interval) 0
  in
  let timing =
    match dynamic with
    | None -> Kernel.no_migration
    | Some dc ->
      {
        Kernel.drain_delay = dc.drain_delay;
        handoff_delay = dc.migration_delay;
        state_delay = dc.state_delay;
      }
  in
  let k =
    Kernel.create ~name:"Engine.run" ~cat:"sim" ~caps ~assignment
      ~readers:(Graph.readers_of ~n_inputs:d graph.Graph.inputs_of)
      ~sources ~net_delay:config.net_delay ~warmup:config.warmup ~until
      ~faults:config.faults ~shed_above:config.shed_above ~timing
      ~op_service:(op_service_histograms m)
      { Kernel.serve; complete; control }
  in
  (* The first tick goes before the crashes: on a tie it runs first. *)
  (match dynamic with
  | Some dc -> Kernel.at_control k dc.interval 0
  | None -> ());
  Kernel.arm_faults k;
  Kernel.run k;
  let events = Kernel.events k in
  (* Only a gauge's last value is observable, so it is set once. *)
  if events > 0 then
    Obs.Gauge.set obs_queue_depth (float_of_int (Kernel.queue_depth k));
  Obs.Counter.incr obs_runs;
  Obs.Counter.add obs_events events;
  Obs.Counter.add obs_migrations (Kernel.migrations k);
  Obs.Counter.add obs_lost (Kernel.lost k);
  Obs.emit ~cat:"sim"
    ~args:
      [
        ("arrivals", string_of_int (Kernel.arrivals k));
        ("outputs", string_of_int !outputs_count);
        ("events", string_of_int events);
      ]
    ~ts:0. ~dur:until "sim.run";
  {
    Sim_metrics.duration = until -. config.warmup;
    utilization = Kernel.utilization k;
    latencies;
    arrivals = Kernel.arrivals k;
    items_processed = !items_processed;
    outputs = !outputs_count;
    backlog = Kernel.backlog k;
    max_backlog = Kernel.max_backlog k;
    op_stats;
    migrations = Kernel.migrations k;
    dropped = Kernel.dropped k;
    lost = Kernel.lost k;
  }
