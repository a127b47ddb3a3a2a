(* rodlint: obs *)
(* rodlint: deterministic *)
(* rodproto: protocol — pause/drain/resume live migration; the role
   markers below bind the per-operator protocol state rodproto tracks *)

type 'd item = {
  op : int;
  input_idx : int;
  origin : float;
  data : 'd;
}

type 'd event =
  | Deliver of 'd item  (* routed to the operator's current node *)
  | Complete of int * 'd item  (* service on a node ended *)
  | Control of int  (* the executor's control hook, with its tag *)
  | Handoff of int  (* drain window closed; rodproto: role drain-event *)
  | Resume of int  (* transfer finished; rodproto: role resume-event *)
  | Crash of int * int array  (* node dies; switch to recovery *)

type timing = {
  drain_delay : float;
  handoff_delay : float;
  state_delay : int -> float;
}

let no_migration =
  { drain_delay = 0.; handoff_delay = 0.; state_delay = (fun _ -> 0.) }

(* Per-node and per-operator state lives in flat arrays, so a float
   update stores in place instead of boxing. *)
type 'd t = {
  payload : 'd payload;
  heap : 'd event Event_queue.t;
  sources : 'd Source_merge.t;
  input_readers : (int * int) list array;
  op_readers : (int * int) list array;
  capacity : float array;
  queues : 'd item Queue.t array;  (* rodproto: role input-queue *)
  busy : bool array;
  busy_time : float array;  (* within the measurement window *)
  busy_accum : float array;  (* since the start, for controllers *)
  dead : bool array;
  assignment : int array;  (* rodproto: role deployed-assignment *)
  paused : bool array;  (* rodproto: role paused *)
  (* Destination of an in-flight migration; [-1] when not migrating.
     The assignment only flips at the drain-window handoff. *)
  pending : int array;  (* rodproto: role pending *)
  buffers : 'd item Queue.t array;  (* rodproto: role buffer *)
  migration_start : float array;
  net_delay : float;
  warmup : float;
  until : float;
  faults : Fault.schedule;
  shed_above : int option;
  timing : timing;
  op_service : Obs.Histogram.t array;
  cat : string;
  arrivals : int;
  (* Invariants: [queued] is the summed length of every node queue and
     every migration buffer, and [in_service] the number of busy
     nodes, both kept at each transition. *)
  mutable queued : int;
  mutable in_service : int;
  mutable max_backlog : int;
  mutable lost : int;
  mutable dropped : int;
  mutable migrations : int;
  mutable events : int;
  (* Reader deliveries of the arrivals still in the merge. *)
  mutable undelivered : int;
}

and 'd payload = {
  serve : 'd t -> int -> float -> 'd item -> float;
  complete : 'd t -> int -> float -> 'd item -> unit;
  control : 'd t -> float -> int -> unit;
}

let create ~name ~cat ~caps ~assignment ~readers ~sources ~net_delay ~warmup
    ~until ~faults ~shed_above ~timing ~op_service payload =
  let m = Array.length assignment in
  let n = Linalg.Vec.dim caps in
  let input_readers, op_readers = readers in
  if Array.length op_readers <> m then
    invalid_arg (name ^ ": assignment length");
  Array.iter
    (fun node ->
      if node < 0 || node >= n then invalid_arg (name ^ ": bad node index"))
    assignment;
  if until <= warmup then invalid_arg (name ^ ": until <= warmup");
  Fault.validate ~n_nodes:n ~n_ops:m faults;
  let arrivals = ref 0 and undelivered = ref 0 in
  Array.iteri
    (fun s times ->
      Array.iter
        (fun t -> if t >= warmup && t <= until then incr arrivals)
        times;
      undelivered :=
        !undelivered + (Array.length times * List.length input_readers.(s)))
    (Source_merge.times sources);
  {
    payload;
    heap = Event_queue.create ();
    sources;
    input_readers;
    op_readers;
    capacity = Array.copy caps;
    queues = Array.init n (fun _ -> Queue.create ());
    busy = Array.make n false;
    busy_time = Array.make n 0.;
    busy_accum = Array.make n 0.;
    dead = Array.make n false;
    assignment = Array.copy assignment;
    paused = Array.make m false;
    pending = Array.make m (-1);
    buffers = Array.init m (fun _ -> Queue.create ());
    migration_start = Array.make m 0.;
    net_delay;
    warmup;
    until;
    faults;
    shed_above;
    timing;
    op_service;
    cat;
    arrivals = !arrivals;
    queued = 0;
    in_service = 0;
    max_backlog = 0;
    lost = 0;
    dropped = 0;
    migrations = 0;
    events = 0;
    undelivered = !undelivered;
  }

let measured k t = t >= k.warmup && t <= k.until

let start_service k node now =
  if not (Queue.is_empty k.queues.(node)) then begin
    let item = Queue.take k.queues.(node) in
    k.queued <- k.queued - 1;
    let cpu = k.payload.serve k node now item in
    let capacity =
      k.capacity.(node) *. Fault.capacity_factor k.faults ~node ~time:now
    in
    let wall = cpu /. capacity in
    if measured k now && Array.length k.op_service > 0 then
      Obs.Histogram.observe k.op_service.(item.op) wall;
    let finish = now +. wall in
    (* Busy time clipped to the measurement window. *)
    let lo = Float.max now k.warmup and hi = Float.min finish k.until in
    if hi > lo then k.busy_time.(node) <- k.busy_time.(node) +. (hi -. lo);
    k.busy_accum.(node) <- k.busy_accum.(node) +. wall;
    k.busy.(node) <- true;
    k.in_service <- k.in_service + 1;
    Event_queue.push k.heap ~time:finish (Complete (node, item))
  end

(* Route to the operator's current node (re-routing in-flight tuples
   after a migration), or into its buffer while it migrates. *)
let deliver k now item =
  if k.paused.(item.op) then begin
    Queue.add item k.buffers.(item.op);
    k.queued <- k.queued + 1
  end
  else begin
    let node = k.assignment.(item.op) in
    if k.dead.(node) then begin
      (* Only a broken recovery still routes here. *)
      if measured k now then k.lost <- k.lost + 1
    end
    else
      match k.shed_above with
      | Some limit when Queue.length k.queues.(node) >= limit ->
        if measured k now then k.dropped <- k.dropped + 1
      | Some _ | None ->
        Queue.add item k.queues.(node);
        k.queued <- k.queued + 1;
        if not k.busy.(node) then start_service k node now
  end;
  let backlog = k.queued + k.in_service in
  if backlog > k.max_backlog then k.max_backlog <- backlog

let rec send k now item data = function
  | [] -> ()
  | (op, input_idx) :: rest ->
    let delay =
      if k.assignment.(op) = k.assignment.(item.op) then 0.
      else k.net_delay +. Fault.extra_delay k.faults ~time:now
    in
    Event_queue.push k.heap ~time:(now +. delay)
      (Deliver { op; input_idx; origin = item.origin; data });
    send k now item data rest

let emit k now item data = send k now item data k.op_readers.(item.op)

let is_sink k op = match k.op_readers.(op) with [] -> true | _ :: _ -> false

(* Pause–drain–resume, step 1 (pause): the operator's queued work
   moves into its buffer (the in-service item, if any, finishes on the
   old node), new input buffers, and a drain window opens for in-flight
   tuples.  The assignment does NOT flip yet — that happens at the
   [Handoff] closing the drain window. *)
let migrate k now op dest =
  if
    (not k.paused.(op))
    && dest <> k.assignment.(op)
    && dest >= 0
    && dest < Array.length k.queues
  then begin
    let old_queue = k.queues.(k.assignment.(op)) in
    let kept = Queue.create () in
    Queue.iter
      (fun item ->
        if item.op = op then Queue.add item k.buffers.(op)
        else Queue.add item kept)
      old_queue;
    Queue.clear old_queue;
    Queue.transfer kept old_queue;
    k.paused.(op) <- true;
    k.pending.(op) <- dest;
    k.migrations <- k.migrations + 1;
    k.migration_start.(op) <- now;
    Event_queue.push k.heap ~time:(now +. k.timing.drain_delay) (Handoff op)
  end

let handle k now = function
  | Deliver item -> deliver k now item
  | Complete (node, item) ->
    k.busy.(node) <- false;
    k.in_service <- k.in_service - 1;
    if k.dead.(node) then begin
      (* The node died while this item was in service: the work (and
         its outputs) perish with it. *)
      if measured k now then k.lost <- k.lost + 1
    end
    else begin
      k.payload.complete k node now item;
      start_service k node now
    end
  | Control tag -> k.payload.control k now tag
  | Handoff op ->
    (* Drain window closed: flip ownership iff the destination is
       still alive, then transfer state. *)
    let dest = k.pending.(op) in
    let resume_at =
      now +. k.timing.handoff_delay +. Float.max 0. (k.timing.state_delay op)
    in
    if not k.dead.(dest) then begin
      (* rodproto: gated-by Deploy.finish — deployed/replanned plans are gated *)
      k.assignment.(op) <- dest;
      Event_queue.push k.heap ~time:resume_at (Resume op)
    end
    else
      (* Abort: the destination died in the drain window.  The operator
         resumes wherever the (possibly recovery-remapped) assignment
         says it lives. *)
      Event_queue.push k.heap ~time:resume_at (Resume op)
  | Resume op ->
    k.paused.(op) <- false;
    k.pending.(op) <- -1;
    Obs.emit ~cat:k.cat
      ~args:
        [ ("op", string_of_int op); ("to", string_of_int k.assignment.(op)) ]
      ~ts:k.migration_start.(op)
      ~dur:(now -. k.migration_start.(op))
      (k.cat ^ ".migrate");
    let buffered = k.buffers.(op) in
    (* Each flushed item counts again as [deliver] re-adds it. *)
    k.queued <- k.queued - Queue.length buffered;
    let flush = Queue.create () in
    Queue.transfer buffered flush;
    Queue.iter (fun item -> deliver k now item) flush
  | Crash (node, recovery) ->
    k.dead.(node) <- true;
    Obs.instant ~cat:"fault" ~ts:now
      ~args:[ ("node", string_of_int node) ]
      "fault.crash";
    (* Queued work dies with the node; the in-service item (if any) is
       dropped when its Complete event fires. *)
    let queue = k.queues.(node) in
    if measured k now then k.lost <- k.lost + Queue.length queue;
    k.queued <- k.queued - Queue.length queue;
    Queue.clear queue;
    let moved = ref 0 in
    Array.iteri
      (fun j dest -> if dest <> k.assignment.(j) then incr moved)
      recovery;
    Obs.instant ~cat:"fault" ~ts:now
      ~args:
        [ ("node", string_of_int node); ("ops_moved", string_of_int !moved) ]
      "fault.recovery";
    (* rodproto: gated-by Deploy.finish — recovery plans ship gated with the deployment *)
    Array.blit recovery 0 k.assignment 0 (Array.length recovery)

let at_control k time tag = Event_queue.push k.heap ~time (Control tag)

let arm_faults k =
  List.iter
    (fun (at, node, recovery) ->
      if at <= k.until then
        Event_queue.push k.heap ~time:at (Crash (node, recovery)))
    (Fault.crashes k.faults)

(* One delivery per reader of a source arrival, in reader order, back
   to back. *)
let rec feed k t data = function
  | [] -> ()
  | (op, input_idx) :: rest ->
    k.events <- k.events + 1;
    k.undelivered <- k.undelivered - 1;
    deliver k t { op; input_idx; origin = t; data };
    feed k t data rest

(* A source arrival goes first on a tie: a heap preloaded with every
   arrival would have given each a lower sequence number than any
   other event. *)
let rec run k =
  let top = Event_queue.min_time k.heap in
  if Source_merge.precedes k.sources top then begin
    let t = Source_merge.head_time k.sources in
    let data = Source_merge.head k.sources in
    let readers = k.input_readers.(Source_merge.head_stream k.sources) in
    Source_merge.advance k.sources;
    feed k t data readers;
    run k
  end
  else if top <= k.until && not (Event_queue.is_empty k.heap) then begin
    let event = Event_queue.pop k.heap in
    k.events <- k.events + 1;
    handle k top event;
    run k
  end

let assignment k = Array.copy k.assignment
let busy_total k node = k.busy_accum.(node)

let utilization k =
  let span = k.until -. k.warmup in
  Array.map (fun busy -> busy /. span) k.busy_time

let queue_length k node = Queue.length k.queues.(node)
let arrivals k = k.arrivals
let backlog k = k.queued + k.in_service
let max_backlog k = k.max_backlog
let lost k = k.lost
let dropped k = k.dropped
let migrations k = k.migrations
let events k = k.events
let queue_depth k = Event_queue.length k.heap + k.undelivered
