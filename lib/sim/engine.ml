(* rodlint: obs *)
(* rodlint: deterministic *)
(* rodproto: protocol — pause/drain/resume live migration; the role
   markers below bind the per-operator protocol state rodproto tracks *)

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

type work_item = {
  op : int;
  input_idx : int;
  origin : float;
}

type node_state = {
  capacity : float;
  queue : work_item Queue.t;  (* rodproto: role input-queue *)
  mutable current : work_item option;
  mutable busy_time : float;  (* within the measurement window *)
  mutable busy_accum : float;  (* total, for controller utilization *)
}

type service_outcome = {
  cpu : float;  (* CPU seconds charged *)
  emitted : int;  (* output tuples *)
  pairs : int;  (* join candidate pairs examined (0 otherwise) *)
}

type event =
  | Deliver of work_item  (* routed to the operator's current node *)
  | Complete of int * work_item * service_outcome
  | Tick  (* dynamic controller wake-up *)
  | Handoff of int  (* drain window closed; rodproto: role drain-event *)
  | Migration_done of int  (* transfer finished; rodproto: role resume-event *)
  | Crash_fault of int * int array  (* node dies; switch to recovery *)

(* Sliding windows of a join operator: tuple timestamps per input side. *)
type join_state = {
  window : float;
  sides : float Queue.t array;
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
  if Array.length assignment <> m then invalid_arg "Engine.run: assignment length";
  Array.iter
    (fun node ->
      if node < 0 || node >= n then invalid_arg "Engine.run: bad node index")
    assignment;
  if Array.length arrivals <> d then
    invalid_arg "Engine.run: arrivals per input stream expected";
  if until <= config.warmup then invalid_arg "Engine.run: until <= warmup";
  (match dynamic with
  | Some dc
    when dc.interval <= 0. || dc.migration_delay < 0. || dc.drain_delay < 0. ->
    invalid_arg "Engine.run: bad dynamic config"
  | Some _ | None -> ());
  Fault.validate ~n_nodes:n ~n_ops:m config.faults;
  let assignment = Array.copy assignment in (* rodproto: role deployed-assignment *)
  let dead = Array.make n false in
  let lost_count = ref 0 in
  let rng = Random.State.make [| config.seed |] in
  let input_readers, op_readers =
    Graph.readers_of ~n_inputs:d graph.Graph.inputs_of
  in
  let nodes =
    Array.init n (fun i ->
        { capacity = caps.(i); queue = Queue.create (); current = None;
          busy_time = 0.; busy_accum = 0. })
  in
  (* Dynamic load-distribution state: operators mid-migration buffer
     their input until the state transfer completes. *)
  let migrating = Array.make m false in (* rodproto: role paused *)
  let buffers = Array.init m (fun _ -> Queue.create ()) in (* rodproto: role buffer *)
  (* Destination of an in-flight migration; [-1] when not migrating.
     The assignment only flips at the drain-window handoff. *)
  let pending = Array.make m (-1) in (* rodproto: role pending *)
  let op_cpu_window = Array.make m 0. in
  let last_busy = Array.make n 0. in
  (* Source arrivals wait in the merge, not in the event heap. *)
  let sources = Source_merge.create ~ts:Fun.id ~until arrivals in
  (* Per-stream cursors over the merge's sorted arrivals for the
     controller's rate gauges. *)
  let rate_cursor = Array.make d 0 in
  let input_rate_gauges =
    match dynamic with
    | None -> [||]
    | Some _ ->
      Array.init d (fun k ->
          Obs.gauge
            ~labels:[ ("stream", string_of_int k) ]
            ~help:"Observed input rate over the last control interval (tuples/s)"
            "rod_sim_input_rate")
  in
  let migrations_count = ref 0 in
  let dropped_count = ref 0 in
  let joins = Hashtbl.create 4 in
  for j = 0 to m - 1 do
    match (Graph.op graph j).Op.kind with
    | Op.Join { window; _ } ->
      Hashtbl.add joins j
        { window; sides = [| Queue.create (); Queue.create () |] }
    | Op.Linear _ | Op.Var_selectivity _ -> ()
  done;
  let events = Event_queue.create () in
  let op_stats =
    Array.init m (fun j ->
        Sim_metrics.make_op_stat ~arity:(Op.arity (Graph.op graph j)))
  in
  let latencies = Sim_metrics.Samples.create () in
  let op_service = op_service_histograms m in
  let migration_start = Array.make m 0. in
  let obs_event_count = ref 0 in
  let arrivals_count = ref 0 in
  let items_processed = ref 0 in
  let outputs_count = ref 0 in
  (* Invariants: [queued] is the summed length of every node queue and
     every migration buffer, and [in_service] the number of nodes with
     an item in service, both kept at each transition. *)
  let queued = ref 0 in
  let in_service = ref 0 in
  let max_backlog = ref 0 in
  let measured t = t >= config.warmup && t <= until in
  (* Reader deliveries of the arrivals still in the merge: with the
     heap's length, the event-queue depth a preloaded heap would show. *)
  let src_pending = ref 0 in
  Array.iteri
    (fun k times ->
      Array.iter (fun t -> if measured t then incr arrivals_count) times;
      src_pending :=
        !src_pending + (Array.length times * List.length input_readers.(k)))
    (Source_merge.times sources);
  (* Service of one item: CPU seconds and the number of output tuples
     (both decided when service begins). *)
  let service now item =
    let op = Graph.op graph item.op in
    match op.Op.kind with
    | Op.Linear { costs; selectivities } ->
      {
        cpu = costs.(item.input_idx);
        emitted = emit_count rng selectivities.(item.input_idx);
        pairs = 0;
      }
    | Op.Var_selectivity { cost; sel_now; _ } ->
      { cpu = cost; emitted = emit_count rng sel_now; pairs = 0 }
    | Op.Join { cost_per_pair; sel_per_pair; window = _ } ->
      let state = Hashtbl.find joins item.op in
      (* Tuples pair when their timestamps differ by at most window/2:
         both sides probe, each candidate pair is examined exactly once
         (when its later tuple arrives), and the pair rate is
         w * r_u * r_v — matching the load model of §6.2. *)
      let horizon = now -. (state.window /. 2.) in
      let expire q =
        while (not (Queue.is_empty q)) && Queue.peek q < horizon do
          ignore (Queue.pop q)
        done
      in
      Array.iter expire state.sides;
      let own = state.sides.(item.input_idx) in
      let opposite = state.sides.(1 - item.input_idx) in
      let pairs = Queue.length opposite in
      Queue.add now own;
      {
        cpu = cost_per_pair *. float_of_int pairs;
        emitted = binomial rng pairs sel_per_pair;
        pairs;
      }
  in
  let start_service node_idx now =
    let node = nodes.(node_idx) in
    match Queue.take_opt node.queue with
    | None -> ()
    | Some item ->
      decr queued;
      let outcome = service now item in
      let capacity =
        node.capacity
        *. Fault.capacity_factor config.faults ~node:node_idx ~time:now
      in
      let wall = outcome.cpu /. capacity in
      if measured now then Obs.Histogram.observe op_service.(item.op) wall;
      let finish = now +. wall in
      (* Busy time clipped to the measurement window. *)
      let lo = Float.max now config.warmup and hi = Float.min finish until in
      if hi > lo then node.busy_time <- node.busy_time +. (hi -. lo);
      node.busy_accum <- node.busy_accum +. wall;
      node.current <- Some item;
      incr in_service;
      Event_queue.push events ~time:finish (Complete (node_idx, item, outcome))
  in
  (* Route to the operator's current node (re-routing in-flight tuples
     after a migration), or into its buffer while it migrates. *)
  let deliver now item =
    if migrating.(item.op) then begin
      Queue.add item buffers.(item.op);
      incr queued
    end
    else begin
      let node_idx = assignment.(item.op) in
      if dead.(node_idx) then begin
        (* Only a broken recovery still routes here. *)
        if measured now then incr lost_count
      end
      else
      let node = nodes.(node_idx) in
      match config.shed_above with
      | Some limit when Queue.length node.queue >= limit ->
        if measured now then incr dropped_count
      | Some _ | None ->
        Queue.add item node.queue;
        incr queued;
        if node.current = None then start_service node_idx now
    end;
    let backlog = !queued + !in_service in
    if backlog > !max_backlog then max_backlog := backlog
  in
  let emit now item count =
    match op_readers.(item.op) with
    | [] ->
      (* Sink operator: outputs leave the system. *)
      if measured now then begin
        outputs_count := !outputs_count + count;
        for _ = 1 to count do
          Sim_metrics.Samples.add latencies (now -. item.origin);
          Obs.Histogram.observe obs_sink_latency (now -. item.origin)
        done
      end
    | readers ->
      for _ = 1 to count do
        List.iter
          (fun (op, input_idx) ->
            let delay =
              if assignment.(op) = assignment.(item.op) then 0.
              else config.net_delay +. Fault.extra_delay config.faults ~time:now
            in
            Event_queue.push events ~time:(now +. delay)
              (Deliver { op; input_idx; origin = item.origin }))
          readers
      done
  in
  (* Pause–drain–resume, step 1 (pause): the operator's queued work
     moves into its buffer (the in-service item, if any, finishes on the
     old node), new input buffers, and a drain window opens for in-flight
     tuples.  The assignment does NOT flip yet — that happens at the
     [Handoff] closing the drain window. *)
  let start_migration now op dest =
    if (not migrating.(op)) && dest <> assignment.(op) && dest >= 0 && dest < n
    then begin
      let drain = match dynamic with Some dc -> dc.drain_delay | None -> 0. in
      let old_queue = nodes.(assignment.(op)).queue in
      let kept = Queue.create () in
      Queue.iter
        (fun item ->
          if item.op = op then Queue.add item buffers.(op)
          else Queue.add item kept)
        old_queue;
      Queue.clear old_queue;
      Queue.transfer kept old_queue;
      migrating.(op) <- true;
      pending.(op) <- dest;
      incr migrations_count;
      migration_start.(op) <- now;
      Event_queue.push events ~time:(now +. drain) (Handoff op)
    end
  in
  let handle_tick now =
    match dynamic with
    | None -> ()
    | Some dc ->
      let utilization =
        Array.mapi
          (fun i node ->
            let used = (node.busy_accum -. last_busy.(i)) /. dc.interval in
            last_busy.(i) <- node.busy_accum;
            Float.min 1. used)
          nodes
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
          ~rates
          ~assignment:(Array.copy assignment)
      in
      Array.fill op_cpu_window 0 m 0.;
      List.iter (fun (op, dest) -> start_migration now op dest) decisions;
      if now +. dc.interval <= until then
        Event_queue.push events ~time:(now +. dc.interval) Tick
  in
  let handle now = function
    | Deliver item -> deliver now item
    | Complete (node_idx, _item, _outcome) when dead.(node_idx) ->
      (* The node died while this item was in service: the work (and
         its outputs) perish with it, so it leaves the backlog too. *)
      nodes.(node_idx).current <- None;
      decr in_service;
      if measured now then incr lost_count
    | Complete (node_idx, item, outcome) ->
      nodes.(node_idx).current <- None;
      decr in_service;
      op_cpu_window.(item.op) <- op_cpu_window.(item.op) +. outcome.cpu;
      if measured now then begin
        incr items_processed;
        let stat = op_stats.(item.op) in
        stat.Sim_metrics.consumed.(item.input_idx) <-
          stat.Sim_metrics.consumed.(item.input_idx) + 1;
        stat.Sim_metrics.emitted.(item.input_idx) <-
          stat.Sim_metrics.emitted.(item.input_idx) + outcome.emitted;
        stat.Sim_metrics.cpu.(item.input_idx) <-
          stat.Sim_metrics.cpu.(item.input_idx) +. outcome.cpu;
        stat.Sim_metrics.pairs <- stat.Sim_metrics.pairs + outcome.pairs
      end;
      emit now item outcome.emitted;
      start_service node_idx now
    | Tick -> handle_tick now
    | Handoff op ->
      (* Drain window closed: flip ownership iff the destination is
         still alive, then transfer state.  A dead destination aborts
         the migration — the operator resumes wherever the (possibly
         recovery-remapped) assignment says it lives. *)
      let dest = pending.(op) in
      (* rodproto: gated-by Deploy.finish — deployed/replanned plans are gated *)
      if dest >= 0 && not dead.(dest) then assignment.(op) <- dest;
      let delay, state =
        match dynamic with
        | Some dc -> (dc.migration_delay, Float.max 0. (dc.state_delay op))
        | None -> (0., 0.)
      in
      Event_queue.push events ~time:(now +. delay +. state) (Migration_done op)
    | Migration_done op ->
      migrating.(op) <- false;
      pending.(op) <- -1;
      Obs.emit ~cat:"sim"
        ~args:
          [ ("op", string_of_int op); ("to", string_of_int assignment.(op)) ]
        ~ts:migration_start.(op)
        ~dur:(now -. migration_start.(op))
        "sim.migrate";
      let pending = buffers.(op) in
      (* Each flushed item counts again as [deliver] re-adds it. *)
      queued := !queued - Queue.length pending;
      let flush = Queue.create () in
      Queue.transfer pending flush;
      Queue.iter (fun item -> deliver now item) flush
    | Crash_fault (node_idx, recovery) ->
      dead.(node_idx) <- true;
      let node = nodes.(node_idx) in
      Obs.instant ~cat:"fault" ~ts:now
        ~args:[ ("node", string_of_int node_idx) ]
        "fault.crash";
      (* Queued work dies with the node; the in-service item (if any) is
         dropped when its Complete event fires. *)
      if measured now then lost_count := !lost_count + Queue.length node.queue;
      queued := !queued - Queue.length node.queue;
      Queue.clear node.queue;
      let moved = ref 0 in
      Array.iteri
        (fun j dest -> if dest <> assignment.(j) then incr moved)
        recovery;
      Obs.instant ~cat:"fault" ~ts:now
        ~args:
          [
            ("node", string_of_int node_idx);
            ("ops_moved", string_of_int !moved);
          ]
        "fault.recovery";
      (* rodproto: gated-by Deploy.finish — recovery plans ship gated with the deployment *)
      Array.blit recovery 0 assignment 0 m
  in
  (match dynamic with
  | Some dc -> Event_queue.push events ~time:dc.interval Tick
  | None -> ());
  List.iter
    (fun (at, node, recovery) ->
      if at <= until then
        Event_queue.push events ~time:at (Crash_fault (node, recovery)))
    (Fault.crashes config.faults);
  (* One event per reader delivery of a source arrival, in reader
     order, back to back. *)
  let rec feed t = function
    | [] -> ()
    | (op, input_idx) :: rest ->
      incr obs_event_count;
      decr src_pending;
      deliver t { op; input_idx; origin = t };
      feed t rest
  in
  (* A source arrival goes first on a tie: a preloaded heap gave every
     arrival a lower sequence number than any other event. *)
  let rec loop () =
    let top = Event_queue.min_time events in
    if Source_merge.precedes sources top then begin
      let t = Source_merge.head_time sources in
      let readers = input_readers.(Source_merge.head_stream sources) in
      Source_merge.advance sources;
      feed t readers;
      loop ()
    end
    else if top <= until then
      match Event_queue.pop events with
      | Some (time, event) ->
        incr obs_event_count;
        handle time event;
        loop ()
      | None -> ()
  in
  loop ();
  (* The depth a heap preloaded with every source delivery would hold
     after the last event.  Only a gauge's last value is observable, so
     it is set once. *)
  if !obs_event_count > 0 then
    Obs.Gauge.set obs_queue_depth
      (float_of_int (Event_queue.length events + !src_pending));
  Obs.Counter.incr obs_runs;
  Obs.Counter.add obs_events !obs_event_count;
  Obs.Counter.add obs_migrations !migrations_count;
  Obs.Counter.add obs_lost !lost_count;
  Obs.emit ~cat:"sim"
    ~args:
      [
        ("arrivals", string_of_int !arrivals_count);
        ("outputs", string_of_int !outputs_count);
        ("events", string_of_int !obs_event_count);
      ]
    ~ts:0. ~dur:until "sim.run";
  let backlog = !queued + !in_service in
  let span = until -. config.warmup in
  {
    Sim_metrics.duration = span;
    utilization = Array.map (fun node -> node.busy_time /. span) nodes;
    latencies;
    arrivals = !arrivals_count;
    items_processed = !items_processed;
    outputs = !outputs_count;
    backlog;
    max_backlog = !max_backlog;
    op_stats;
    migrations = !migrations_count;
    dropped = !dropped_count;
    lost = !lost_count;
  }
