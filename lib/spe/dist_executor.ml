(* rodlint: obs *)
(* rodproto: protocol — pause/drain/resume live migration, mirroring
   Dsim.Engine; role markers below bind the protocol state *)

module Vec = Linalg.Vec
module Graph = Query.Graph
module Event_queue = Dsim.Event_queue
module Source_merge = Dsim.Source_merge
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

type migration_timing = {
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

type work_item = {
  op : int;
  input_idx : int;
  tuple : Tuple.t;
  origin : float;  (* event time of the source tuple *)
}

type node_state = {
  capacity : float;
  queue : work_item Queue.t;  (* rodproto: role input-queue *)
  mutable busy : bool;
  mutable busy_time : float;
}

type event =
  | Deliver of work_item
  | Complete of int * work_item * Tuple.t list  (* node, item, outputs *)
  | Migrate of (int * int) list  (* scripted (op, dest) migrations *)
  | Handoff of int  (* drain window closed; rodproto: role drain-event *)
  | Resume of int  (* state transfer finished; rodproto: role resume-event *)
  | Crash_fault of int * int array  (* node dies; switch to recovery *)

let run ~network ~assignment ~caps ~cost ~inputs ?(config = default_config)
    ?(migrations = []) ?(timing = default_timing) ~until () =
  let m = Network.n_ops network in
  let d = Network.n_inputs network in
  let n = Vec.dim caps in
  if Array.length assignment <> m then
    invalid_arg "Dist_executor.run: assignment length";
  Array.iter
    (fun node ->
      if node < 0 || node >= n then
        invalid_arg "Dist_executor.run: bad node index")
    assignment;
  if Array.length inputs <> d then
    invalid_arg "Dist_executor.run: one tuple list per input stream";
  if until <= config.warmup then invalid_arg "Dist_executor.run: until <= warmup";
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
  Dsim.Fault.validate ~n_nodes:n ~n_ops:m config.faults;
  let assignment = Array.copy assignment in (* rodproto: role deployed-assignment *)
  let dead = Array.make n false in
  let lost = ref 0 in
  let states = Array.init m (fun j -> Executor.replay_state (Network.op network j)) in
  let stats = Array.init m (fun j -> Executor.replay_stat (Network.op network j)) in
  let nodes =
    Array.init n (fun i ->
        { capacity = caps.(i); queue = Queue.create (); busy = false;
          busy_time = 0. })
  in
  let events = Event_queue.create () in
  let outputs = ref [] in
  let latencies = Samples.create () in
  let arrivals = ref 0 in
  (* Pause–drain–resume migration state, mirroring [Dsim.Engine]:
     operators mid-migration buffer their input; ownership flips only at
     the handoff closing the drain window. *)
  let migrating = Array.make m false in (* rodproto: role paused *)
  let mig_pending = Array.make m (-1) in (* rodproto: role pending *)
  let mig_buffers = Array.init m (fun _ -> Queue.create ()) in (* rodproto: role buffer *)
  let migration_start = Array.make m 0. in
  let migrations_count = ref 0 in
  let measured t = t >= config.warmup && t <= until in
  let input_readers, op_readers = Network.readers network in
  (* Source tuples wait in the merge, not in the event heap. *)
  let sources = Source_merge.create ~ts:Tuple.ts ~until inputs in
  Array.iter
    (Array.iter (fun ts -> if measured ts then incr arrivals))
    (Source_merge.times sources);
  let service item =
    let sop = Network.op network item.op in
    let stat = stats.(item.op) in
    let pairs_before = stat.Executor.pairs in
    let produced =
      Executor.replay_process sop states.(item.op) stat item.input_idx item.tuple
    in
    (* [replay_process] maintains only [pairs]; the consumed/emitted
       counters are the caller's job (as in [Executor.run]'s own loop). *)
    stat.Executor.consumed.(item.input_idx) <-
      stat.Executor.consumed.(item.input_idx) + 1;
    stat.Executor.emitted <- stat.Executor.emitted + List.length produced;
    let cpu =
      match sop with
      | Sop.Equi_join _ ->
        cost item.op item.input_idx
        *. float_of_int (stat.Executor.pairs - pairs_before)
      | _ -> cost item.op item.input_idx
    in
    (cpu, produced)
  in
  let start_service node_idx now =
    let node = nodes.(node_idx) in
    match Queue.take_opt node.queue with
    | None -> node.busy <- false
    | Some item ->
      node.busy <- true;
      let cpu, produced = service item in
      let capacity =
        node.capacity
        *. Dsim.Fault.capacity_factor config.faults ~node:node_idx ~time:now
      in
      let wall = cpu /. capacity in
      let finish = now +. wall in
      let lo = Float.max now config.warmup and hi = Float.min finish until in
      if hi > lo then node.busy_time <- node.busy_time +. (hi -. lo);
      Event_queue.push events ~time:finish (Complete (node_idx, item, produced))
  in
  let deliver now item =
    if migrating.(item.op) then Queue.add item mig_buffers.(item.op)
    else begin
      let node_idx = assignment.(item.op) in
      if dead.(node_idx) then begin
        (* Only a broken recovery still routes here. *)
        if measured now then incr lost
      end
      else begin
        let node = nodes.(node_idx) in
        Queue.add item node.queue;
        if not node.busy then start_service node_idx now
      end
    end
  in
  (* Pause: the operator's queued work moves to its buffer (an
     in-service item finishes on the old node), new input buffers, and
     the drain window opens.  The assignment flips at the [Handoff]. *)
  let start_migration now op dest =
    if (not migrating.(op)) && dest <> assignment.(op) then begin
      let old_queue = nodes.(assignment.(op)).queue in
      let kept = Queue.create () in
      Queue.iter
        (fun item ->
          if item.op = op then Queue.add item mig_buffers.(op)
          else Queue.add item kept)
        old_queue;
      Queue.clear old_queue;
      Queue.transfer kept old_queue;
      migrating.(op) <- true;
      mig_pending.(op) <- dest;
      incr migrations_count;
      migration_start.(op) <- now;
      Event_queue.push events ~time:(now +. timing.drain_delay) (Handoff op)
    end
  in
  let emit now item produced =
    match op_readers.(item.op) with
    | [] ->
      if measured now then
        List.iter
          (fun t ->
            outputs := (item.op, t) :: !outputs;
            Samples.add latencies (now -. item.origin))
          produced
    | readers ->
      List.iter
        (fun t ->
          List.iter
            (fun (op, input_idx) ->
              let delay =
                if assignment.(op) = assignment.(item.op) then 0.
                else
                  config.net_delay
                  +. Dsim.Fault.extra_delay config.faults ~time:now
              in
              Event_queue.push events ~time:(now +. delay)
                (Deliver { op; input_idx; tuple = t; origin = item.origin }))
            readers)
        produced
  in
  let handle now = function
    | Deliver item -> deliver now item
    | Complete (node_idx, _item, _produced) when dead.(node_idx) ->
      (* The node died mid-service: the item and its outputs are lost.
         Note the semantic state mutation happened at service start, so
         downstream-visible losses are exactly the dropped outputs. *)
      if measured now then incr lost
    | Complete (node_idx, item, produced) ->
      emit now item produced;
      start_service node_idx now
    | Migrate moves ->
      List.iter (fun (op, dest) -> start_migration now op dest) moves
    | Handoff op ->
      (* Flip ownership iff the destination survived the drain window;
         a dead destination aborts the migration and the operator
         resumes wherever the (possibly recovery-remapped) assignment
         says it lives. *)
      let dest = mig_pending.(op) in
      (* rodproto: gated-by Deploy.finish — deployed/replanned plans are gated *)
      if dest >= 0 && not dead.(dest) then assignment.(op) <- dest;
      let pause =
        timing.handoff_delay +. Float.max 0. (timing.state_delay op)
      in
      Event_queue.push events ~time:(now +. pause) (Resume op)
    | Resume op ->
      migrating.(op) <- false;
      mig_pending.(op) <- -1;
      Obs.emit ~cat:"spe"
        ~args:
          [ ("op", string_of_int op); ("to", string_of_int assignment.(op)) ]
        ~ts:migration_start.(op)
        ~dur:(now -. migration_start.(op))
        "spe.migrate";
      let flush = Queue.create () in
      Queue.transfer mig_buffers.(op) flush;
      Queue.iter (fun item -> deliver now item) flush
    | Crash_fault (node_idx, recovery) ->
      dead.(node_idx) <- true;
      let node = nodes.(node_idx) in
      Obs.instant ~cat:"fault" ~ts:now
        ~args:[ ("node", string_of_int node_idx) ]
        "fault.crash";
      if measured now then lost := !lost + Queue.length node.queue;
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
  List.iter
    (fun (at, node, recovery) ->
      if at <= until then
        Event_queue.push events ~time:at (Crash_fault (node, recovery)))
    (Dsim.Fault.crashes config.faults);
  List.iter
    (fun (at, moves) ->
      if at <= until then Event_queue.push events ~time:at (Migrate moves))
    migrations;
  let rec feed ts tuple = function
    | [] -> ()
    | (op, input_idx) :: rest ->
      deliver ts { op; input_idx; tuple; origin = ts };
      feed ts tuple rest
  in
  (* A source arrival goes first on a tie, as in [Dsim.Engine]. *)
  let rec loop () =
    let top = Event_queue.min_time events in
    if Source_merge.precedes sources top then begin
      let ts = Source_merge.head_time sources in
      let tuple = Source_merge.head sources in
      let readers = input_readers.(Source_merge.head_stream sources) in
      Source_merge.advance sources;
      feed ts tuple readers;
      loop ()
    end
    else if top <= until then
      match Event_queue.pop events with
      | Some (time, event) ->
        handle time event;
        loop ()
      | None -> ()
  in
  loop ();
  let backlog =
    Array.fold_left (fun acc node -> acc + Queue.length node.queue) 0 nodes
    + Array.fold_left (fun acc buf -> acc + Queue.length buf) 0 mig_buffers
  in
  let span = until -. config.warmup in
  let outputs_count = List.length !outputs in
  Obs.Counter.incr obs_runs;
  Obs.Counter.add obs_arrivals !arrivals;
  Obs.Counter.add obs_outputs outputs_count;
  Obs.Counter.add obs_lost !lost;
  Array.iteri
    (fun i node ->
      let labels = [ ("node", string_of_int i) ] in
      Obs.Gauge.set
        (Obs.gauge ~labels ~help:"Busy fraction over the measured window"
           "rod_spe_node_utilization")
        (node.busy_time /. span);
      Obs.Gauge.set
        (Obs.gauge ~labels ~help:"Work items still queued at run end"
           "rod_spe_node_queue_depth")
        (float_of_int (Queue.length node.queue)))
    nodes;
  Obs.emit ~cat:"spe"
    ~args:
      [
        ("arrivals", string_of_int !arrivals);
        ("outputs", string_of_int outputs_count);
        ("lost", string_of_int !lost);
      ]
    ~ts:0. ~dur:until "spe.run";
  {
    outputs = List.rev !outputs;
    utilization = Array.map (fun node -> node.busy_time /. span) nodes;
    latencies;
    arrivals = !arrivals;
    backlog;
    lost = !lost;
    migrations = !migrations_count;
    op_stats = stats;
  }
