type op_run_stat = {
  consumed : int array;
  mutable emitted : int;
  mutable pairs : int;
}

type result = {
  outputs : (int * Tuple.t) list;
  stats : op_run_stat array;
  recorded : (int * Tuple.t) list array option;
}

(* --- aggregate accumulators --- *)

type accum = {
  mutable count : int;
  mutable sum : float;
  mutable mx : float;
  mutable mn : float;
}

let fresh_accum () = { count = 0; sum = 0.; mx = neg_infinity; mn = infinity }

let accum_add acc x =
  acc.count <- acc.count + 1;
  acc.sum <- acc.sum +. x;
  if x > acc.mx then acc.mx <- x;
  if x < acc.mn then acc.mn <- x

let accum_value fn acc =
  match fn with
  | Sop.Count -> Value.Int acc.count
  | Sop.Sum _ -> Value.Float acc.sum
  | Sop.Avg _ ->
    Value.Float (if acc.count = 0 then 0. else acc.sum /. float_of_int acc.count)
  | Sop.Max _ -> Value.Float acc.mx
  | Sop.Min _ -> Value.Float acc.mn

let accum_input fn tuple =
  match fn with
  | Sop.Count -> 0.
  | Sop.Sum field | Sop.Avg field | Sop.Max field | Sop.Min field ->
    Tuple.number tuple field

(* --- per-operator state --- *)

(* Buffered entries support sliding windows: each tuple contributes its
   timestamp, group key and the raw per-aggregate input values; every
   slide boundary aggregates the entries its window covers. *)
type agg_entry = {
  entry_ts : float;
  key : Value.t option;
  inputs : float array;  (* one raw value per compute entry *)
}

type agg_state = {
  mutable last_boundary : int option;  (* boundary index: time = k * slide *)
  entries : agg_entry Queue.t;  (* timestamp-ordered *)
}

type join_state = {
  left : Tuple.t Queue.t;
  right : Tuple.t Queue.t;
}

type state =
  | Stateless
  | Agg of agg_state
  | Join of join_state
  | Dedup of (Value.t, float) Hashtbl.t  (* key -> last emission time *)

let initial_state = function
  | Sop.Aggregate _ -> Agg { last_boundary = None; entries = Queue.create () }
  | Sop.Equi_join _ -> Join { left = Queue.create (); right = Queue.create () }
  | Sop.Distinct _ -> Dedup (Hashtbl.create 32)
  | Sop.Filter _ | Sop.Map _ | Sop.Project _ | Sop.Union _ -> Stateless

let field_or_fail op_name tuple key =
  match Tuple.find_opt tuple key with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Executor: operator %s: tuple lacks field %S" op_name key)

(* One emission: aggregate the buffered entries whose timestamps fall in
   [boundary - window, boundary), one output tuple per group (hash
   order; order within an emission carries no semantics). *)
let emit_boundary ~window ~slide ~group_by ~compute st k =
  let boundary = float_of_int k *. slide in
  let lo = boundary -. window in
  let groups : (Value.t option, accum array) Hashtbl.t = Hashtbl.create 16 in
  Queue.iter
    (fun e ->
      if e.entry_ts >= lo && e.entry_ts < boundary then begin
        let accums =
          match Hashtbl.find_opt groups e.key with
          | Some a -> a
          | None ->
            let a = Array.init (List.length compute) (fun _ -> fresh_accum ()) in
            Hashtbl.add groups e.key a;
            a
        in
        Array.iteri (fun i x -> accum_add accums.(i) x) e.inputs
      end)
    st.entries;
  let emitted = ref [] in
  Hashtbl.iter
    (fun key accums ->
      let computed =
        List.mapi
          (fun i (out_field, fn) -> (out_field, accum_value fn accums.(i)))
          compute
      in
      let fields =
        match (group_by, key) with
        | Some _, Some k -> ("group", k) :: computed
        | _ -> computed
      in
      emitted := Tuple.make ~ts:boundary fields :: !emitted)
    groups;
  (* Entries older than the NEXT boundary's window start are done. *)
  let horizon = (float_of_int (k + 1) *. slide) -. window in
  while
    (not (Queue.is_empty st.entries))
    && (Queue.peek st.entries).entry_ts < horizon
  do
    ignore (Queue.pop st.entries)
  done;
  !emitted

(* Emit every boundary up to and including time [t]; returns outputs in
   boundary order. *)
let advance_boundaries ~window ~slide ~group_by ~compute st t =
  let target = int_of_float (floor (t /. slide)) in
  let start =
    match st.last_boundary with
    | Some k -> k
    | None ->
      st.last_boundary <- Some target;
      target
  in
  let out = ref [] in
  for k = start + 1 to target do
    out := !out @ emit_boundary ~window ~slide ~group_by ~compute st k;
    st.last_boundary <- Some k
  done;
  !out

let process_aggregate sop st tuple =
  match sop with
  | Sop.Aggregate { window; slide; group_by; compute; name } ->
    let t = Tuple.ts tuple in
    let flushed = advance_boundaries ~window ~slide ~group_by ~compute st t in
    let key =
      match group_by with
      | None -> None
      | Some field -> Some (field_or_fail name tuple field)
    in
    let inputs =
      Array.of_list (List.map (fun (_, fn) -> accum_input fn tuple) compute)
    in
    Queue.add { entry_ts = t; key; inputs } st.entries;
    flushed
  | _ -> assert false

(* End of stream: keep emitting boundaries until the buffer drains. *)
let finish_aggregate sop st =
  match sop with
  | Sop.Aggregate { window; slide; group_by; compute; _ } ->
    let out = ref [] in
    let guard = ref 0 in
    while (not (Queue.is_empty st.entries)) && !guard < 1_000_000 do
      incr guard;
      let k = (match st.last_boundary with Some k -> k | None -> 0) + 1 in
      out := !out @ emit_boundary ~window ~slide ~group_by ~compute st k;
      st.last_boundary <- Some k
    done;
    !out
  | _ -> assert false

let process_join sop st stat input_idx tuple =
  match sop with
  | Sop.Equi_join { window; left_key; right_key; name } ->
    let now = Tuple.ts tuple in
    let horizon = now -. (window /. 2.) in
    let expire q =
      while (not (Queue.is_empty q)) && Tuple.ts (Queue.peek q) < horizon do
        ignore (Queue.pop q)
      done
    in
    expire st.left;
    expire st.right;
    let own, opposite, own_key, opp_key, merge =
      if input_idx = 0 then
        ( st.left,
          st.right,
          left_key,
          right_key,
          fun mine theirs ->
            Tuple.merge ~prefix_left:"l_" ~prefix_right:"r_" mine theirs )
      else
        ( st.right,
          st.left,
          right_key,
          left_key,
          fun mine theirs ->
            Tuple.merge ~prefix_left:"l_" ~prefix_right:"r_" theirs mine )
    in
    let key = field_or_fail name tuple own_key in
    let matches = ref [] in
    Queue.iter
      (fun other ->
        stat.pairs <- stat.pairs + 1;
        if Value.equal key (field_or_fail name other opp_key) then
          matches := merge tuple other :: !matches)
      opposite;
    Queue.add tuple own;
    List.rev !matches
  | _ -> assert false

let process sop state stat input_idx tuple =
  match (sop, state) with
  | Sop.Filter { predicate; _ }, Stateless ->
    if predicate tuple then [ tuple ] else []
  | Sop.Distinct { window; key; name }, Dedup seen -> (
    let k = field_or_fail name tuple key in
    let now = Tuple.ts tuple in
    match Hashtbl.find_opt seen k with
    | Some last when now -. last < window -> []
    | Some _ | None ->
      Hashtbl.replace seen k now;
      [ tuple ])
  | Sop.Map { transform; _ }, Stateless -> [ transform tuple ]
  | Sop.Project { keep; _ }, Stateless -> [ Tuple.project tuple keep ]
  | Sop.Union _, Stateless -> [ tuple ]
  | Sop.Aggregate _, Agg st -> process_aggregate sop st tuple
  | Sop.Equi_join _, Join st -> process_join sop st stat input_idx tuple
  | _ -> assert false

let replay_state = initial_state

let replay_stat sop =
  { consumed = Array.make (Sop.arity sop) 0; emitted = 0; pairs = 0 }

let replay_process = process

let run ?(record = false) network ~inputs =
  let d = Network.n_inputs network in
  let m = Network.n_ops network in
  if Array.length inputs <> d then
    invalid_arg "Executor.run: one tuple list per input stream expected";
  let states = Array.init m (fun j -> initial_state (Network.op network j)) in
  let stats =
    Array.init m (fun j ->
        {
          consumed = Array.make (Sop.arity (Network.op network j)) 0;
          emitted = 0;
          pairs = 0;
        })
  in
  let logs = if record then Some (Array.make m []) else None in
  let outputs = ref [] in
  let input_readers, op_readers = Network.readers network in
  let rec push j input_idx tuple =
    let stat = stats.(j) in
    stat.consumed.(input_idx) <- stat.consumed.(input_idx) + 1;
    (match logs with
    | Some logs -> logs.(j) <- (input_idx, tuple) :: logs.(j)
    | None -> ());
    let produced =
      process (Network.op network j) states.(j) stat input_idx tuple
    in
    stat.emitted <- stat.emitted + List.length produced;
    deliver j produced
  and deliver j produced =
    match op_readers.(j) with
    | [] -> List.iter (fun t -> outputs := (j, t) :: !outputs) produced
    | readers ->
      List.iter
        (fun t -> List.iter (fun (c, idx) -> push c idx t) readers)
        produced
  in
  (* Merge the input streams by timestamp (stable: stream order breaks
     ties deterministically). *)
  let events =
    Array.to_list (Array.mapi (fun k ts -> List.map (fun t -> (k, t)) ts) inputs)
    |> List.concat
    |> List.stable_sort (fun (_, a) (_, b) -> Float.compare (Tuple.ts a) (Tuple.ts b))
  in
  List.iter
    (fun (k, tuple) ->
      List.iter
        (fun (c, idx) -> push c idx tuple)
        input_readers.(k))
    events;
  (* End of stream: flush open windows, upstream first so cascades
     propagate. *)
  List.iter
    (fun j ->
      match (Network.op network j, states.(j)) with
      | (Sop.Aggregate _ as sop), Agg st ->
        let produced = finish_aggregate sop st in
        stats.(j).emitted <- stats.(j).emitted + List.length produced;
        deliver j produced
      | _ -> ())
    (Network.topo_order network);
  {
    outputs = List.rev !outputs;
    stats;
    recorded = Option.map (Array.map List.rev) logs;
  }
