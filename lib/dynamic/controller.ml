(* rodlint: obs *)
(* rodlint: deterministic *)
(* rodproto: protocol — the controller owns a deployed assignment; all
   writes to it are Plan_check-gated through [create] *)

module Vec = Linalg.Vec

let obs_margin =
  Obs.gauge ~help:"Feasible-set margin at the last control decision"
    "rod_ctl_margin"

let obs_headroom =
  Obs.gauge ~help:"Feasible boundary scale along the observed rate ray"
    "rod_ctl_headroom"

let obs_replans =
  Obs.counter ~help:"Accepted replans" "rod_ctl_replans_total"

let obs_rejects =
  Obs.counter ~help:"Replan attempts rejected by the acceptance gate"
    "rod_ctl_rejects_total"

let obs_holds =
  Obs.counter ~help:"Control decisions that held the placement"
    "rod_ctl_holds_total"

let obs_moves =
  Obs.counter ~help:"Migrations issued by accepted replans"
    "rod_ctl_moves_total"

type config = {
  threshold : float;
  budget : int;
  samples : int;
  smoothing : float;
  cooldown : float;
}

let default_config =
  { threshold = 0.1; budget = 3; samples = 1024; smoothing = 0.5; cooldown = 2. }

type action =
  | Hold
  | Replanned of Replanner.outcome
  | Rejected of Replanner.outcome

type decision = {
  time : float;
  rates : Vec.t;
  margin : Margin.t;
  action : action;
}

type t = {
  problem : Rod.Problem.t;
  config : config;
  cost_of : int -> float;
  pool : Parallel.Pool.t option;
  mutable smoothed : Vec.t option;
  mutable last_attempt : float;
  mutable assignment : int array;  (* rodproto: role deployed-assignment *)
  mutable log : decision list;  (* newest first *)
}

let create ?pool ?(config = default_config) ?(cost_of = fun _ -> 0.) problem
    ~assignment =
  if config.threshold >= 1. then
    invalid_arg "Controller.create: threshold must be < 1";
  if config.budget < 0 then invalid_arg "Controller.create: negative budget";
  if config.samples <= 0 then
    invalid_arg "Controller.create: samples must be positive";
  if config.smoothing <= 0. || config.smoothing > 1. then
    invalid_arg "Controller.create: smoothing in (0, 1]";
  if config.cooldown < 0. then
    invalid_arg "Controller.create: negative cooldown";
  (* Admission gate: the load model must be well-formed before this
     assignment becomes the controller's deployed truth — the same
     check Deploy runs, so every later write to [t.assignment] is
     justified against this gate. *)
  Analysis.Plan_check.assert_ok ~what:"controller admission"
    (Analysis.Plan_check.check_matrix ~lo:problem.Rod.Problem.lo
       ~caps:problem.Rod.Problem.caps ());
  (* Validates length and node range. *)
  ignore (Rod.Plan.make problem assignment);
  {
    problem;
    config;
    cost_of;
    pool;
    smoothed = None;
    last_attempt = Float.neg_infinity;
    assignment = Array.copy assignment;
    log = [];
  }

let assignment t = Array.copy t.assignment

let cost_of t = t.cost_of

let observe t ~time ~rates ~assignment =
  if Array.length assignment <> Array.length t.assignment then
    invalid_arg "Controller.observe: assignment length";
  (* The engine's view wins: crash recoveries and aborted migrations
     remap the placement without telling the controller. *)
  (* rodproto: gated-by Dynamic.Controller.create — resync to the engine's Plan_check-admitted truth *)
  Array.blit assignment 0 t.assignment 0 (Array.length assignment);
  let smoothed =
    match t.smoothed with
    | None -> Vec.copy rates
    | Some prev -> Margin.smooth ~alpha:t.config.smoothing ~prev rates
  in
  t.smoothed <- Some smoothed;
  let margin =
    Margin.of_assignment t.problem ~assignment:t.assignment ~rates:smoothed
  in
  Obs.Gauge.set obs_margin margin.Margin.margin;
  if Float.is_finite margin.Margin.headroom then
    Obs.Gauge.set obs_headroom margin.Margin.headroom;
  let record action =
    t.log <- { time; rates = Vec.copy smoothed; margin; action } :: t.log
  in
  if
    margin.Margin.margin >= t.config.threshold
    || time -. t.last_attempt < t.config.cooldown
  then begin
    Obs.Counter.incr obs_holds;
    record Hold;
    []
  end
  else begin
    t.last_attempt <- time;
    let outcome =
      Obs.with_span ~cat:"ctl"
        ~args:[ ("time", Obs.Export.float_str time) ]
        "ctl.replan"
        (fun () ->
          Replanner.replan ?pool:t.pool ~samples:t.config.samples
            ~rates:smoothed ~budget:t.config.budget ~cost_of:t.cost_of
            t.problem ~assignment:t.assignment)
    in
    if outcome.Replanner.accepted then begin
      List.iter
        (fun (mv : Replanner.move) ->
          (* rodproto: gated-by Dynamic.Controller.create — replans refine the admitted model *)
          t.assignment.(mv.Replanner.op) <- mv.Replanner.to_node)
        outcome.Replanner.moves;
      Obs.Counter.incr obs_replans;
      Obs.Counter.add obs_moves (List.length outcome.Replanner.moves);
      record (Replanned outcome);
      List.map
        (fun mv -> (mv.Replanner.op, mv.Replanner.to_node))
        outcome.Replanner.moves
    end
    else begin
      Obs.Counter.incr obs_rejects;
      record (Rejected outcome);
      []
    end
  end

let decisions t = List.rev t.log

(* --- deterministic JSON export (schema rod-replan-log/1) --- *)

let json_float f = if Float.is_finite f then Obs.Export.float_str f else "null"

let add_vec buf v =
  Buffer.add_char buf '[';
  Array.iteri
    (fun k x ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (json_float x))
    v;
  Buffer.add_char buf ']'

let add_moves buf moves =
  Buffer.add_char buf '[';
  List.iteri
    (fun k (mv : Replanner.move) ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"op\":%d,\"from\":%d,\"to\":%d,\"gain\":%d,\"cost\":%s}"
           mv.Replanner.op mv.Replanner.from_node mv.Replanner.to_node
           mv.Replanner.gain
           (json_float mv.Replanner.cost)))
    moves;
  Buffer.add_char buf ']'

let add_outcome buf (o : Replanner.outcome) =
  Buffer.add_string buf ",\"moves\":";
  add_moves buf o.Replanner.moves;
  Buffer.add_string buf
    (Printf.sprintf
       ",\"ratio_before\":%s,\"ratio_after\":%s,\"transfer_cost\":%s"
       (json_float o.Replanner.ratio_before)
       (json_float o.Replanner.ratio_after)
       (json_float o.Replanner.cost))

let decisions_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"rod-replan-log/1\",\"decisions\":[";
  List.iteri
    (fun k d ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"time\":%s,\"rates\":" (json_float d.time));
      add_vec buf d.rates;
      Buffer.add_string buf
        (Printf.sprintf
           ",\"margin\":%s,\"headroom\":%s,\"utilization\":%s,\"action\":"
           (json_float d.margin.Margin.margin)
           (json_float d.margin.Margin.headroom)
           (json_float d.margin.Margin.utilization));
      (match d.action with
      | Hold -> Buffer.add_string buf "\"hold\""
      | Replanned o ->
        Buffer.add_string buf "\"replan\"";
        add_outcome buf o
      | Rejected o ->
        Buffer.add_string buf "\"reject\"";
        add_outcome buf o);
      Buffer.add_char buf '}')
    (decisions t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let engine_config ?(interval = 1.) ?(migration_delay = 0.3)
    ?(drain_delay = 0.05) t =
  {
    Dsim.Engine.interval;
    migration_delay;
    drain_delay;
    state_delay = t.cost_of;
    decide =
      (fun ~time ~utilization:_ ~op_cpu:_ ~rates ~assignment ->
        observe t ~time ~rates ~assignment);
  }
