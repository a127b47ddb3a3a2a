(* Tests of the semantic stream-processing engine: values, tuples,
   operator semantics in the executor, and the profiler bridge to the
   cost model. *)

module Graph = Query.Graph
module Value = Spe.Value
module Tuple = Spe.Tuple
module Sop = Spe.Sop
module Network = Spe.Network
module Executor = Spe.Executor

let approx eps = Alcotest.float eps

(* --- values and tuples --- *)

let test_value_conversions () =
  Alcotest.check (approx 1e-12) "int widens" 3. (Value.to_float (Value.Int 3));
  Alcotest.(check int) "float truncates" 3 (Value.to_int (Value.Float 3.9));
  Alcotest.(check string) "to_string" "abc" (Value.to_string (Value.Str "abc"));
  Alcotest.(check bool) "no numeric coercion in equal" false
    (Value.equal (Value.Int 1) (Value.Float 1.));
  Alcotest.(check bool) "numeric compare coerces" true
    (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "strings after numbers" true
    (Value.compare (Value.Str "a") (Value.Int 9) > 0)

let test_tuple_operations () =
  let t =
    Tuple.make ~ts:1.5 [ ("b", Value.Int 2); ("a", Value.Str "x") ]
  in
  Alcotest.(check (list string)) "fields sorted" [ "a"; "b" ] (Tuple.names t);
  Alcotest.check (approx 1e-12) "number" 2. (Tuple.number t "b");
  Alcotest.(check bool) "mem" true (Tuple.mem t "a");
  let t2 = Tuple.set t "c" (Value.Float 7.) in
  Alcotest.(check (list string)) "set adds" [ "a"; "b"; "c" ] (Tuple.names t2);
  let t3 = Tuple.project t2 [ "a"; "c" ] in
  Alcotest.(check (list string)) "project" [ "a"; "c" ] (Tuple.names t3);
  Alcotest.(check bool) "remove" false (Tuple.mem (Tuple.remove t "a") "a");
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Tuple.make: duplicate field \"a\"") (fun () ->
      ignore (Tuple.make ~ts:0. [ ("a", Value.Int 1); ("a", Value.Int 2) ]))

let test_tuple_merge () =
  let l = Tuple.make ~ts:1. [ ("k", Value.Int 1) ] in
  let r = Tuple.make ~ts:2. [ ("k", Value.Int 1); ("v", Value.Int 9) ] in
  let merged = Tuple.merge ~prefix_left:"l_" ~prefix_right:"r_" l r in
  Alcotest.check (approx 1e-12) "later timestamp wins" 2. (Tuple.ts merged);
  Alcotest.(check (list string)) "prefixed fields" [ "l_k"; "r_k"; "r_v" ]
    (Tuple.names merged)

(* --- executor semantics --- *)

let packet ~ts ~bytes ~proto =
  Tuple.make ~ts [ ("bytes", Value.Int bytes); ("proto", Value.Str proto) ]

let single_sink_outputs result = List.map snd result.Executor.outputs

let test_filter_and_counts () =
  let network =
    Network.create ~n_inputs:1
      ~ops:
        [
          ( Sop.filter (fun t -> Tuple.number t "bytes" > 100.),
            [ Graph.Sys_input 0 ] );
        ]
      ()
  in
  let inputs =
    [|
      [
        packet ~ts:0.1 ~bytes:50 ~proto:"tcp";
        packet ~ts:0.2 ~bytes:500 ~proto:"udp";
        packet ~ts:0.3 ~bytes:1500 ~proto:"tcp";
      ];
    |]
  in
  let result = Executor.run network ~inputs in
  Alcotest.(check int) "two pass" 2 (List.length result.Executor.outputs);
  let stat = result.Executor.stats.(0) in
  Alcotest.(check int) "consumed" 3 stat.Executor.consumed.(0);
  Alcotest.(check int) "emitted" 2 stat.Executor.emitted

let test_map_project_union () =
  let double t =
    Tuple.set t "bytes" (Value.Int (2 * Value.to_int (Tuple.find t "bytes")))
  in
  let network =
    Network.create ~n_inputs:2
      ~ops:
        [
          (Sop.map double, [ Graph.Sys_input 0 ]);
          (Sop.project [ "bytes" ], [ Graph.Sys_input 1 ]);
          (Sop.union ~arity:2 (), [ Graph.Op_output 0; Graph.Op_output 1 ]);
        ]
      ()
  in
  let inputs =
    [|
      [ packet ~ts:1. ~bytes:10 ~proto:"tcp" ];
      [ packet ~ts:2. ~bytes:7 ~proto:"udp" ];
    |]
  in
  let result = Executor.run network ~inputs in
  match single_sink_outputs result with
  | [ a; b ] ->
    Alcotest.check (approx 1e-12) "mapped doubled" 20. (Tuple.number a "bytes");
    Alcotest.(check bool) "projected dropped proto" false (Tuple.mem b "proto");
    Alcotest.check (approx 1e-12) "projection kept value" 7. (Tuple.number b "bytes")
  | other -> Alcotest.failf "expected 2 outputs, got %d" (List.length other)

let test_tumbling_aggregate () =
  let network =
    Network.create ~n_inputs:1
      ~ops:
        [
          ( Sop.aggregate ~window:10. ~group_by:"proto"
              [ ("n", Sop.Count); ("volume", Sop.Sum "bytes") ],
            [ Graph.Sys_input 0 ] );
        ]
      ()
  in
  let inputs =
    [|
      [
        packet ~ts:1. ~bytes:100 ~proto:"tcp";
        packet ~ts:2. ~bytes:200 ~proto:"tcp";
        packet ~ts:3. ~bytes:50 ~proto:"udp";
        (* window [10,20): triggers flush of [0,10) *)
        packet ~ts:12. ~bytes:70 ~proto:"tcp";
      ];
    |]
  in
  let result = Executor.run network ~inputs in
  let outputs = single_sink_outputs result in
  Alcotest.(check int) "two groups + final flush" 3 (List.length outputs);
  let find_group proto outs =
    List.find
      (fun t -> Value.to_string (Tuple.find t "group") = proto)
      outs
  in
  let first_window = List.filter (fun t -> Tuple.ts t = 10.) outputs in
  let tcp = find_group "tcp" first_window in
  Alcotest.check (approx 1e-12) "tcp count" 2. (Tuple.number tcp "n");
  Alcotest.check (approx 1e-12) "tcp volume" 300. (Tuple.number tcp "volume");
  let udp = find_group "udp" first_window in
  Alcotest.check (approx 1e-12) "udp count" 1. (Tuple.number udp "n");
  (* End-of-stream flush of the open [10,20) window. *)
  let last = find_group "tcp" (List.filter (fun t -> Tuple.ts t = 20.) outputs) in
  Alcotest.check (approx 1e-12) "flushed count" 1. (Tuple.number last "n")

let test_aggregate_functions () =
  let network =
    Network.create ~n_inputs:1
      ~ops:
        [
          ( Sop.aggregate ~window:100.
              [
                ("avg", Sop.Avg "bytes");
                ("max", Sop.Max "bytes");
                ("min", Sop.Min "bytes");
              ],
            [ Graph.Sys_input 0 ] );
        ]
      ()
  in
  let inputs =
    [|
      [
        packet ~ts:1. ~bytes:100 ~proto:"tcp";
        packet ~ts:2. ~bytes:300 ~proto:"tcp";
        packet ~ts:3. ~bytes:200 ~proto:"tcp";
      ];
    |]
  in
  let result = Executor.run network ~inputs in
  match single_sink_outputs result with
  | [ t ] ->
    Alcotest.check (approx 1e-12) "avg" 200. (Tuple.number t "avg");
    Alcotest.check (approx 1e-12) "max" 300. (Tuple.number t "max");
    Alcotest.check (approx 1e-12) "min" 100. (Tuple.number t "min");
    Alcotest.(check bool) "no group field without group_by" false
      (Tuple.mem t "group")
  | other -> Alcotest.failf "expected 1 output, got %d" (List.length other)

let test_sliding_window () =
  (* Window 4, slide 2, one tuple per second with value = its index:
     boundary 2 covers ts {0,1} (window [-2,2)); boundary 4 covers
     {0,1,2,3}; boundary 6 covers {2..5}; trailing flushes cover the
     rest. *)
  let network =
    Network.create ~n_inputs:1
      ~ops:
        [
          ( Sop.aggregate ~window:4. ~slide:2. [ ("s", Sop.Sum "v") ],
            [ Graph.Sys_input 0 ] );
        ]
      ()
  in
  let inputs =
    [|
      List.init 8 (fun i ->
          Tuple.make ~ts:(float_of_int i) [ ("v", Value.Int i) ]);
    |]
  in
  let result = Executor.run network ~inputs in
  let sums =
    List.map
      (fun (_, t) -> (Tuple.ts t, Tuple.number t "s"))
      result.Executor.outputs
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "overlapping sums"
    [
      (2., 1.) (* 0+1 *); (4., 6.) (* 0+1+2+3 *); (6., 14.) (* 2+3+4+5 *);
      (8., 22.) (* 4+5+6+7 *); (10., 13.) (* 6+7 *);
    ]
    sums

let test_sliding_window_gapped () =
  (* slide > window: sampled windows.  Window 1, slide 3: boundary 3
     covers ts in [2,3). *)
  let network =
    Network.create ~n_inputs:1
      ~ops:
        [
          ( Sop.aggregate ~window:1. ~slide:3. [ ("n", Sop.Count) ],
            [ Graph.Sys_input 0 ] );
        ]
      ()
  in
  let inputs =
    [| List.init 6 (fun i -> Tuple.make ~ts:(0.9 *. float_of_int i) [ ("v", Value.Int 1) ]) |]
  in
  (* ts: 0, .9, 1.8, 2.7, 3.6, 4.5.  Boundary 3 covers [2,3): {2.7};
     the tuples at 3.6 and 4.5 fall in the gap before [5,6) and are
     correctly never reported. *)
  let result = Executor.run network ~inputs in
  let counted =
    List.map
      (fun (_, t) -> (Tuple.ts t, Value.to_int (Tuple.find t "n")))
      result.Executor.outputs
  in
  Alcotest.(check (list (pair (float 1e-9) int))) "gapped windows"
    [ (3., 1) ]
    counted

let test_distinct_dedup () =
  let network =
    Network.create ~n_inputs:1
      ~ops:[ (Sop.distinct ~window:5. ~key:"proto" (), [ Graph.Sys_input 0 ]) ]
      ()
  in
  let inputs =
    [|
      [
        packet ~ts:0. ~bytes:1 ~proto:"tcp" (* emitted *);
        packet ~ts:1. ~bytes:2 ~proto:"tcp" (* suppressed *);
        packet ~ts:2. ~bytes:3 ~proto:"udp" (* emitted *);
        packet ~ts:4.9 ~bytes:4 ~proto:"tcp" (* suppressed *);
        packet ~ts:5.1 ~bytes:5 ~proto:"tcp" (* emitted: window over *);
        packet ~ts:6. ~bytes:6 ~proto:"tcp" (* suppressed: new horizon *);
      ];
    |]
  in
  let result = Executor.run network ~inputs in
  let bytes =
    List.map (fun (_, t) -> Value.to_int (Tuple.find t "bytes"))
      result.Executor.outputs
  in
  Alcotest.(check (list int)) "dedup kept the right tuples" [ 1; 3; 5 ] bytes

let trade ~ts ~symbol ~price =
  Tuple.make ~ts [ ("symbol", Value.Str symbol); ("price", Value.Float price) ]

let news ~ts ~symbol = Tuple.make ~ts [ ("symbol", Value.Str symbol) ]

let test_equi_join () =
  let network =
    Network.create ~n_inputs:2
      ~ops:
        [
          ( Sop.equi_join ~window:2. ~left_key:"symbol" ~right_key:"symbol" (),
            [ Graph.Sys_input 0; Graph.Sys_input 1 ] );
        ]
      ()
  in
  let inputs =
    [|
      [ trade ~ts:1.0 ~symbol:"ACME" ~price:10.
      ; trade ~ts:1.2 ~symbol:"GLOBO" ~price:20.
      ; trade ~ts:5.0 ~symbol:"ACME" ~price:11. ];
      [ news ~ts:1.5 ~symbol:"ACME" ];
    |]
  in
  let result = Executor.run network ~inputs in
  (* Only the ts=1.0 ACME trade is within window/2 = 1 s of the news;
     the ts=5.0 trade is too late, GLOBO never matches. *)
  (match single_sink_outputs result with
  | [ t ] ->
    Alcotest.check (approx 1e-12) "join carries price" 10.
      (Tuple.number t "l_price");
    Alcotest.check (approx 1e-12) "output ts is later side" 1.5 (Tuple.ts t)
  | other -> Alcotest.failf "expected 1 join output, got %d" (List.length other));
  (* Candidate pairs: news probes {trade1.0, trade1.2} = 2; trade5.0
     probes an expired buffer = 0. *)
  Alcotest.(check int) "pairs examined" 2 result.Executor.stats.(0).Executor.pairs

let test_join_missing_key_fails () =
  let network =
    Network.create ~n_inputs:2
      ~ops:
        [
          ( Sop.equi_join ~window:2. ~left_key:"symbol" ~right_key:"nope" (),
            [ Graph.Sys_input 0; Graph.Sys_input 1 ] );
        ]
      ()
  in
  let inputs =
    [| [ trade ~ts:1. ~symbol:"A" ~price:1. ]; [ news ~ts:1.1 ~symbol:"A" ] |]
  in
  Alcotest.(check bool) "missing key raises" true
    (try
       ignore (Executor.run network ~inputs);
       false
     with Invalid_argument _ -> true)

let test_recorded_logs () =
  let network =
    Network.create ~n_inputs:1
      ~ops:[ (Sop.map (fun t -> t), [ Graph.Sys_input 0 ]) ]
      ()
  in
  let inputs = [| [ packet ~ts:1. ~bytes:1 ~proto:"tcp" ] |] in
  let result = Executor.run ~record:true network ~inputs in
  match result.Executor.recorded with
  | Some logs ->
    Alcotest.(check int) "one recorded tuple" 1 (List.length logs.(0))
  | None -> Alcotest.fail "expected recorded logs"

let test_network_validation () =
  Alcotest.(check bool) "join arity enforced" true
    (try
       ignore
         (Network.create ~n_inputs:1
            ~ops:
              [
                ( Sop.equi_join ~window:1. ~left_key:"k" ~right_key:"k" (),
                  [ Graph.Sys_input 0 ] );
              ]
            ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cycles rejected" true
    (try
       ignore
         (Network.create ~n_inputs:1
            ~ops:
              [
                (Sop.map (fun t -> t), [ Graph.Op_output 1 ]);
                (Sop.map (fun t -> t), [ Graph.Op_output 0 ]);
              ]
            ());
       false
     with Invalid_argument _ -> true)

(* --- profiler --- *)

let sample_network () =
  Network.create ~n_inputs:1
    ~ops:
      [
        ( Sop.filter ~name:"big" (fun t -> Tuple.number t "bytes" > 100.),
          [ Graph.Sys_input 0 ] );
        ( Sop.aggregate ~name:"per-proto" ~window:5. ~group_by:"proto"
            [ ("n", Sop.Count) ],
          [ Graph.Op_output 0 ] );
      ]
    ()

let sample_inputs ~n =
  [|
    List.init n (fun i ->
        packet
          ~ts:(0.01 *. float_of_int i)
          ~bytes:(if i mod 2 = 0 then 50 else 500)
          ~proto:(if i mod 3 = 0 then "udp" else "tcp"));
  |]

let test_profiler_selectivities () =
  let result = Spe.Profiler.profile ~replays:3 (sample_network ()) ~inputs:(sample_inputs ~n:400) in
  let filter_profile = result.Spe.Profiler.per_op.(0) in
  Alcotest.check (approx 0.01) "filter selectivity = half" 0.5
    filter_profile.Spe.Profiler.selectivity;
  Alcotest.(check bool) "filter cost positive" true
    (filter_profile.Spe.Profiler.cost > 0.);
  (* The profiled graph reproduces the measured selectivity. *)
  let op0 = Query.Graph.op result.Spe.Profiler.graph 0 in
  let linear = Query.Op.linear_exn op0 in
  Alcotest.check (approx 0.01) "graph selectivity" 0.5
    linear.Query.Op.selectivities.(0)

let test_profiler_feeds_placement () =
  let result = Spe.Profiler.profile ~replays:2 (sample_network ()) ~inputs:(sample_inputs ~n:200) in
  let problem =
    Rod.Problem.of_graph result.Spe.Profiler.graph
      ~caps:(Rod.Problem.homogeneous_caps ~n:2 ~cap:1.)
  in
  let assignment = Rod.Rod_algorithm.place problem in
  Alcotest.(check int) "placement covers the network" 2 (Array.length assignment)

let test_profiler_join_pairs () =
  let network =
    Network.create ~n_inputs:2
      ~ops:
        [
          ( Sop.equi_join ~window:1. ~left_key:"symbol" ~right_key:"symbol" (),
            [ Graph.Sys_input 0; Graph.Sys_input 1 ] );
        ]
      ()
  in
  let inputs =
    [|
      List.init 100 (fun i -> trade ~ts:(0.1 *. float_of_int i) ~symbol:"A" ~price:1.);
      List.init 100 (fun i -> news ~ts:(0.1 *. float_of_int i +. 0.05) ~symbol:"A");
    |]
  in
  let result = Spe.Profiler.profile ~replays:2 network ~inputs in
  let p = result.Spe.Profiler.per_op.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "pairs counted (%d)" p.Spe.Profiler.pairs)
    true
    (p.Spe.Profiler.pairs > 500);
  (* Everything matches (same symbol): selectivity per pair = 1. *)
  Alcotest.check (approx 1e-9) "pair selectivity" 1. p.Spe.Profiler.selectivity

(* --- distributed semantic executor --- *)

let test_dist_executor_matches_logical () =
  (* Same network, same inputs: the distributed run must produce the
     same multiset of sink tuples as the logical executor (ordering may
     differ across nodes). *)
  let network = sample_network () in
  let inputs = sample_inputs ~n:300 in
  let logical = Executor.run network ~inputs in
  let distributed =
    Spe.Dist_executor.run ~network ~assignment:[| 0; 1 |]
      ~caps:(Linalg.Vec.of_list [ 1.; 1. ])
      ~cost:(fun _ _ -> 1e-6)
      ~inputs ~until:1e9 ()
  in
  (* The distributed engine does not flush open windows at the end, so
     compare against logical outputs with window-end ts <= last input. *)
  let logical_outputs =
    List.filter (fun (_, t) -> Tuple.ts t <= 3.) logical.Executor.outputs
  in
  let dist_outputs = distributed.Spe.Dist_executor.outputs in
  Alcotest.(check int) "same sink tuple count" (List.length logical_outputs)
    (List.length dist_outputs);
  List.iter
    (fun (_, t) ->
      Alcotest.(check bool) "tuple present in distributed run" true
        (List.exists (fun (_, t') -> Tuple.equal t t') dist_outputs))
    logical_outputs

let test_dist_executor_utilization () =
  (* One filter of known cost at a known rate: utilization = cost*rate. *)
  let network =
    Network.create ~n_inputs:1
      ~ops:[ (Sop.filter (fun _ -> true), [ Graph.Sys_input 0 ]) ]
      ()
  in
  let inputs =
    [| Spe.Datagen.ticks ~rate:100. ~duration:30. (fun ts ->
           Tuple.make ~ts [ ("x", Value.Int 1) ]) |]
  in
  let result =
    Spe.Dist_executor.run ~network ~assignment:[| 0 |]
      ~caps:(Linalg.Vec.of_list [ 1. ])
      ~cost:(fun _ _ -> 2e-3)
      ~inputs ~until:30. ()
  in
  Alcotest.check (approx 0.01) "utilization = cost * rate" 0.2
    result.Spe.Dist_executor.utilization.(0);
  Alcotest.(check int) "all arrivals counted" 3000
    result.Spe.Dist_executor.arrivals;
  Alcotest.(check int) "no backlog" 0 result.Spe.Dist_executor.backlog

let test_dist_executor_join_pair_costing () =
  let network =
    Network.create ~n_inputs:2
      ~ops:
        [
          ( Sop.equi_join ~window:1. ~left_key:"k" ~right_key:"k" (),
            [ Graph.Sys_input 0; Graph.Sys_input 1 ] );
        ]
      ()
  in
  let stream offset =
    Spe.Datagen.ticks ~rate:50. ~duration:20. (fun ts ->
        Tuple.make ~ts:(ts +. offset) [ ("k", Value.Int 0) ])
  in
  let inputs = [| stream 0.; stream 1e-3 |] in
  let result =
    Spe.Dist_executor.run ~network ~assignment:[| 0 |]
      ~caps:(Linalg.Vec.of_list [ 1. ])
      ~cost:(fun _ _ -> 1e-5)
      ~inputs ~until:20. ()
  in
  (* Pair rate = window * r_l * r_r = 1 * 50 * 50 = 2500/s; at 1e-5 s
     per pair, utilization ~ 2.5%%... times two sides probing: the
     convention counts each pair once, so expect ~0.025. *)
  Alcotest.(check bool)
    (Printf.sprintf "join utilization %.4f near 0.025"
       result.Spe.Dist_executor.utilization.(0))
    true
    (abs_float (result.Spe.Dist_executor.utilization.(0) -. 0.025) < 0.01)


(* --- distributed executor golden ----------------------------------- *)

(* Recorded before the executor's source arrivals left the event heap,
   so it pins the heap's (time, insertion) order: six operators on
   three nodes over two streams on a 5 ms grid, so timestamps tie
   within and across streams; stream 1's list is out of order; an
   order-sensitive distinct reads a union that takes both streams in
   reverse index order; and the crash and the migrations land on an
   arrival's exact timestamp. *)
let golden_network () =
  Network.create ~n_inputs:2
    ~ops:
      [
        ( Sop.filter ~name:"dear" (fun t -> Tuple.number t "price" > 30.),
          [ Graph.Sys_input 0 ] );
        ( Sop.equi_join ~window:0.1 ~left_key:"symbol" ~right_key:"symbol" (),
          [ Graph.Sys_input 0; Graph.Sys_input 1 ] );
        ( Sop.aggregate ~window:0.5 ~group_by:"symbol" [ ("n", Sop.Count) ],
          [ Graph.Op_output 0 ] );
        (Sop.union ~arity:2 (), [ Graph.Sys_input 1; Graph.Sys_input 0 ]);
        (Sop.distinct ~window:0.05 ~key:"symbol" (), [ Graph.Op_output 3 ]);
        (Sop.project [ "symbol" ], [ Graph.Op_output 1 ]);
      ]
    ()

let golden_inputs () =
  let rng = Random.State.make [| 23 |] in
  let symbols = [| "A"; "B"; "C"; "D" |] in
  let stream ~rate ~n =
    let t = ref 0. in
    List.init n (fun _ ->
        t := !t +. (-.log (1. -. Random.State.float rng 1.) /. rate);
        let ts = 0.005 *. Float.round (!t /. 0.005) in
        Tuple.make ~ts
          [
            ("symbol", Value.Str symbols.(Random.State.int rng 4));
            ("price", Value.Float (Random.State.float rng 60.));
          ])
  in
  let s0 = stream ~rate:160. ~n:900 in
  (* Reverse every block of four: the list is no longer time-ordered. *)
  let s1 =
    List.mapi (fun i t -> (i, t)) (stream ~rate:120. ~n:700)
    |> List.sort (fun (i, _) (j, _) -> compare (i / 4, -i) (j / 4, -j))
    |> List.map snd
  in
  [| s0; s1 |]

let golden_dist_run ?(faults = Dsim.Fault.none) ?(migrations = []) inputs =
  let costs = [| 0.0015; 0.00005; 0.002; 0.001; 0.0018; 0.0003 |] in
  Spe.Dist_executor.run ~network:(golden_network ())
    ~assignment:[| 0; 1; 2; 2; 0; 1 |]
    ~caps:(Linalg.Vec.of_list [ 1.; 1.; 0.8 ])
    ~cost:(fun op _ -> costs.(op))
    ~inputs
    ~config:{ Spe.Dist_executor.default_config with warmup = 0.5; faults }
    ~migrations ~until:5. ()

let dist_fingerprint name r =
  let open Spe.Dist_executor in
  let outputs = Buffer.create 4096 in
  List.iter
    (fun (op, t) ->
      Buffer.add_string outputs
        (Format.asprintf "%d %h %a\n" op (Tuple.ts t) Tuple.pp t))
    r.outputs;
  let per_op =
    Array.to_list r.op_stats
    |> List.map (fun s ->
           Printf.sprintf "%s/%d/%d"
             (String.concat ","
                (Array.to_list (Array.map string_of_int s.Executor.consumed)))
             s.Executor.emitted s.Executor.pairs)
  in
  Printf.sprintf
    "%s arrivals=%d outputs=%d digest=%s backlog=%d lost=%d migrations=%d \
     ops=%s p50=%h p99=%h"
    name r.arrivals (List.length r.outputs)
    (Digest.to_hex (Digest.string (Buffer.contents outputs)))
    r.backlog r.lost r.migrations (String.concat " " per_op)
    (Obs.Samples.percentile r.latencies 50.)
    (Obs.Samples.percentile r.latencies 99.)

let golden_dist_fingerprints () =
  let inputs = golden_inputs () in
  (* Exact arrival timestamps: stream 0's tuple at index 400, and
     stream 1's first tuples at or past 1.5 s and 3.2 s. *)
  let ts_at k i = Tuple.ts (List.nth inputs.(k) i) in
  let first_after k t =
    List.fold_left
      (fun acc tu ->
        let ts = Tuple.ts tu in
        if ts >= t && ts < acc then ts else acc)
      infinity inputs.(k)
  in
  let crash =
    Dsim.Fault.Crash
      { node = 0; at = ts_at 0 400; recovery = [| 1; 1; 2; 2; 2; 1 |] }
  in
  let migrations =
    [
      (first_after 1 1.5, [ (3, 0); (1, 2) ]);
      (first_after 1 3.2, [ (3, 1); (0, 2); (4, 1) ]);
    ]
  in
  let slow =
    [
      Dsim.Fault.Slowdown { node = 0; from_ = 1.; until_ = 3.; factor = 0.5 };
      Dsim.Fault.Jitter { from_ = 2.; until_ = 4.; extra = 0.004 };
    ]
  in
  [
    dist_fingerprint "plain" (golden_dist_run inputs);
    dist_fingerprint "crash" (golden_dist_run ~faults:[ crash ] inputs);
    dist_fingerprint "migrations" (golden_dist_run ~migrations inputs);
    dist_fingerprint "slow+jitter" (golden_dist_run ~faults:slow inputs);
  ]


(* Any change to source order, tie-breaks or migration bookkeeping
   shows here. *)
let golden_dist_expected =
  [
    "plain arrivals=1290 outputs=2563 \
     digest=812862916950a49ec4f960ac5a50edd8 backlog=2 lost=0 migrations=0 \
     ops=827/438/0 827,613/2521/10201 438/36/0 613,827/1440/0 1439/315/0 \
     2518/2518/0 p50=0x1.e4f765fd8cp-10 p99=0x1.b7b6bb1290136p-7";
    "crash arrivals=1290 outputs=2528 \
     digest=43e89bbc6fc6380862f3ca01d8431340 backlog=200 lost=3 migrations=0 \
     ops=825/437/0 827,613/2521/10201 398/36/0 580,769/1349/0 1281/281/0 \
     2518/2518/0 p50=0x1.7c1bda5119ep-9 p99=0x1.4be4cd7492e21p-2";
    "migrations arrivals=1290 outputs=2356 \
     digest=8851645159b10855f56c40eaac05f2f4 backlog=354 lost=0 migrations=5 \
     ops=827/438/0 826,611/2515/10176 437/36/0 580,766/1346/0 1256/276/0 \
     2350/2350/0 p50=0x1.0ebedfa437p-8 p99=0x1.68cd20afa2d9fp-1";
    "slow+jitter arrivals=1290 outputs=2556 \
     digest=bfdb8150c633cb6fb1abecb8fbdee92d backlog=60 lost=0 migrations=0 \
     ops=805/424/0 827,613/2521/10201 424/36/0 613,827/1440/0 1404/308/0 \
     2518/2518/0 p50=0x1.e4f765fd8b8p-10 p99=0x1.6a6b50b0f282p-1";
  ]

let test_dist_executor_golden () =
  List.iter2
    (fun expected actual ->
      Alcotest.(check string) "fingerprint" expected actual)
    golden_dist_expected (golden_dist_fingerprints ())

(* --- one kernel under both executors ---------------------------------- *)

(* The in-service item counts in [backlog] in both executors: one
   arrival served for 0.5 s, cut off at 0.25 s. *)
let test_in_service_backlog () =
  let graph =
    Graph.create ~n_inputs:1
      ~ops:[ (Query.Op.map ~cost:0.5 (), [ Graph.Sys_input 0 ]) ]
      ()
  in
  let network =
    Network.create ~n_inputs:1
      ~ops:[ (Sop.map (fun t -> t), [ Graph.Sys_input 0 ]) ]
      ()
  in
  let caps = Linalg.Vec.of_list [ 1. ] in
  let sim =
    Dsim.Engine.run ~graph ~assignment:[| 0 |] ~caps ~arrivals:[| [ 0. ] |]
      ~until:0.25 ()
  in
  let dist =
    Spe.Dist_executor.run ~network ~assignment:[| 0 |] ~caps
      ~cost:(Spe.Dist_executor.cost_model_of_graph graph)
      ~inputs:[| [ Tuple.make ~ts:0. [] ] |]
      ~until:0.25 ()
  in
  Alcotest.(check int) "engine backlog" 1 sim.Dsim.Sim_metrics.backlog;
  Alcotest.(check int) "dist executor backlog" 1
    dist.Spe.Dist_executor.backlog

(* A pass-through network (maps, filters that always pass, a union)
   and its cost model: selectivity 1 and no joins, so the Engine draws
   no random numbers and both executors must time every item alike,
   under a crash, a slowdown, jitter and a migration. *)
let test_executors_agree () =
  let open Query in
  let graph =
    Graph.create ~n_inputs:2
      ~ops:
        [
          (Op.filter ~cost:0.004 ~sel:1. (), [ Graph.Sys_input 0 ]);
          (Op.map ~cost:0.003 (), [ Graph.Sys_input 1 ]);
          ( Op.union ~cost:0.002 ~n_inputs:2 (),
            [ Graph.Op_output 0; Graph.Op_output 1 ] );
          (Op.map ~cost:0.006 (), [ Graph.Op_output 2 ]);
          (Op.filter ~cost:0.002 ~sel:1. (), [ Graph.Sys_input 0 ]);
        ]
      ()
  in
  let pass = Sop.filter (fun _ -> true) and copy = Sop.map (fun t -> t) in
  let network =
    Network.create ~n_inputs:2
      ~ops:
        [
          (pass, [ Graph.Sys_input 0 ]);
          (copy, [ Graph.Sys_input 1 ]);
          (Sop.union ~arity:2 (), [ Graph.Op_output 0; Graph.Op_output 1 ]);
          (copy, [ Graph.Op_output 2 ]);
          (pass, [ Graph.Sys_input 0 ]);
        ]
      ()
  in
  let rng = Random.State.make [| 31 |] in
  let arrivals =
    Array.map
      (fun rates ->
        Workload.Generators.poisson_arrivals ~rng
          ~trace:(Workload.Trace.create ~dt:1. rates))
      [| [| 90.; 160.; 60.; 120. |]; [| 70.; 40.; 150.; 80. |] |]
  in
  let inputs =
    Array.map (List.map (fun ts -> Tuple.make ~ts [ ("x", Value.Int 1) ])) arrivals
  in
  let assignment = [| 0; 1; 2; 0; 1 |] in
  let caps = Linalg.Vec.of_list [ 1.; 1.; 0.8 ] in
  let faults =
    [
      Dsim.Fault.Crash { node = 2; at = 2.5; recovery = [| 0; 1; 1; 0; 1 |] };
      Dsim.Fault.Slowdown { node = 0; from_ = 1.; until_ = 2.; factor = 0.5 };
      Dsim.Fault.Jitter { from_ = 1.5; until_ = 3.; extra = 0.004 };
    ]
  in
  (* Operator 3 moves to node 1 at 2 s: a tick of the Engine's
     controller, a scripted migration of the Dist_executor. *)
  let decide ~time ~utilization:_ ~op_cpu:_ ~rates:_ ~assignment:_ =
    if time = 2. then [ (3, 1) ] else []
  in
  let sim =
    Dsim.Engine.run ~graph ~assignment ~caps ~arrivals
      ~config:
        { Dsim.Engine.default_config with warmup = 0.5; net_delay = 2e-3; faults }
      ~dynamic:
        {
          Dsim.Engine.interval = 1.;
          migration_delay = 0.2;
          drain_delay = 0.05;
          state_delay = (fun op -> 0.01 *. float_of_int op);
          decide;
        }
      ~until:4. ()
  in
  let dist =
    Spe.Dist_executor.run ~network ~assignment ~caps
      ~cost:(Spe.Dist_executor.cost_model_of_graph graph)
      ~inputs
      ~config:{ Spe.Dist_executor.warmup = 0.5; net_delay = 2e-3; faults }
      ~migrations:[ (2., [ (3, 1) ]) ]
      ~timing:
        {
          Spe.Dist_executor.drain_delay = 0.05;
          handoff_delay = 0.2;
          state_delay = (fun op -> 0.01 *. float_of_int op);
        }
      ~until:4. ()
  in
  let open Spe.Dist_executor in
  let p q samples = Obs.Samples.percentile samples q in
  Alcotest.(check (array (float 0.))) "utilization"
    sim.Dsim.Sim_metrics.utilization dist.utilization;
  Alcotest.(check (float 0.)) "p50" (p 50. sim.Dsim.Sim_metrics.latencies)
    (p 50. dist.latencies);
  Alcotest.(check (float 0.)) "p99" (p 99. sim.Dsim.Sim_metrics.latencies)
    (p 99. dist.latencies);
  Alcotest.(check int) "outputs" sim.Dsim.Sim_metrics.outputs
    (List.length dist.outputs);
  Alcotest.(check int) "backlog" sim.Dsim.Sim_metrics.backlog dist.backlog;
  Alcotest.(check int) "lost" sim.Dsim.Sim_metrics.lost dist.lost;
  Alcotest.(check int) "arrivals" sim.Dsim.Sim_metrics.arrivals dist.arrivals;
  Alcotest.(check int) "migrations" 1 dist.migrations;
  Alcotest.(check int) "engine migrations" 1 sim.Dsim.Sim_metrics.migrations;
  (* The schedule bites: work is lost and left over. *)
  Alcotest.(check bool)
    (Printf.sprintf "lost %d, backlog %d" dist.lost dist.backlog)
    true
    (dist.lost > 0 && dist.backlog > 0)

let test_datagen () =
  let rng = Random.State.make [| 5 |] in
  let trace = Workload.Trace.create ~dt:1. (Array.make 10 50.) in
  let packets = Spe.Datagen.packets ~rng ~trace () in
  Alcotest.(check bool)
    (Printf.sprintf "about 500 packets (%d)" (List.length packets))
    true
    (abs (List.length packets - 500) < 120);
  Alcotest.(check bool) "timestamps ascending" true
    (let rec ascending = function
       | a :: (b :: _ as rest) -> Tuple.ts a <= Tuple.ts b && ascending rest
       | _ -> true
     in
     ascending packets);
  let trades = Spe.Datagen.trades ~rng ~trace () in
  Alcotest.(check bool) "trades have positive prices" true
    (List.for_all (fun t -> Tuple.number t "price" > 0.) trades)

let test_datagen_rates () =
  (* Arrival counts must track the driving trace: expected count is
     sum(rate * dt); Poisson sd is sqrt(mean), allow 5 sigma. *)
  let trace = Workload.Trace.create ~dt:0.5 [| 40.; 120.; 80.; 0.; 200. |] in
  let expected = 0.5 *. (40. +. 120. +. 80. +. 0. +. 200.) in
  let check_count label count =
    Alcotest.(check bool)
      (Printf.sprintf "%s count %d within 5 sigma of %.0f" label count expected)
      true
      (abs_float (float_of_int count -. expected) <= 5. *. sqrt expected)
  in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      check_count
        (Printf.sprintf "packets seed %d" seed)
        (List.length (Spe.Datagen.packets ~rng ~trace ()));
      check_count
        (Printf.sprintf "trades seed %d" seed)
        (List.length (Spe.Datagen.trades ~rng ~trace ())))
    [ 1; 2; 3; 4; 5 ];
  (* Deterministic ticks pin exactly — and must round, not truncate:
     4.1 * 10. is 40.999..., and flooring it dropped the last tick. *)
  let count rate duration =
    List.length
      (Spe.Datagen.ticks ~rate ~duration (fun ts -> Tuple.make ~ts []))
  in
  Alcotest.(check int) "ticks exact" 500 (count 50. 10.);
  Alcotest.(check int) "ticks does not truncate 4.1 x 10" 41 (count 4.1 10.);
  Alcotest.(check int) "ticks rounds 0.35 x 10" 4 (count 0.35 10.)

(* --- properties --- *)

let tuple_stream_gen =
  QCheck.Gen.(
    let* n = 1 -- 60 in
    let* values = list_size (return n) (float_bound_inclusive 100.) in
    return
      (List.mapi
         (fun i v ->
           Tuple.make
             ~ts:(0.1 *. float_of_int i)
             [ ("v", Value.Float v); ("k", Value.Int (i mod 3)) ])
         values))

let prop_filter_matches_list_filter =
  QCheck.Test.make ~name:"executor filter = List.filter" ~count:60
    (QCheck.make QCheck.Gen.(pair tuple_stream_gen (float_bound_inclusive 100.)))
    (fun (tuples, threshold) ->
      let network =
        Network.create ~n_inputs:1
          ~ops:
            [
              ( Sop.filter (fun t -> Tuple.number t "v" <= threshold),
                [ Graph.Sys_input 0 ] );
            ]
          ()
      in
      let result = Executor.run network ~inputs:[| tuples |] in
      List.length result.Executor.outputs
      = List.length (List.filter (fun t -> Tuple.number t "v" <= threshold) tuples))

let prop_aggregate_count_partitions_input =
  QCheck.Test.make ~name:"aggregate counts partition the input" ~count:60
    (QCheck.make tuple_stream_gen) (fun tuples ->
      let network =
        Network.create ~n_inputs:1
          ~ops:
            [
              ( Sop.aggregate ~window:1. ~group_by:"k" [ ("n", Sop.Count) ],
                [ Graph.Sys_input 0 ] );
            ]
          ()
      in
      let result = Executor.run network ~inputs:[| tuples |] in
      let counted =
        List.fold_left
          (fun acc (_, t) -> acc + Value.to_int (Tuple.find t "n"))
          0 result.Executor.outputs
      in
      counted = List.length tuples)

let prop_join_counts_match_bruteforce =
  QCheck.Test.make ~name:"join outputs = brute-force pair count" ~count:40
    (QCheck.make QCheck.Gen.(pair tuple_stream_gen tuple_stream_gen))
    (fun (left, right) ->
      let window = 1.5 in
      let network =
        Network.create ~n_inputs:2
          ~ops:
            [
              ( Sop.equi_join ~window ~left_key:"k" ~right_key:"k" (),
                [ Graph.Sys_input 0; Graph.Sys_input 1 ] );
            ]
          ()
      in
      let result = Executor.run network ~inputs:[| left; right |] in
      let brute =
        List.fold_left
          (fun acc l ->
            acc
            + List.length
                (List.filter
                   (fun r ->
                     abs_float (Tuple.ts l -. Tuple.ts r) <= window /. 2.
                     && Value.equal (Tuple.find l "k") (Tuple.find r "k"))
                   right))
          0 left
      in
      List.length result.Executor.outputs = brute)

let prop_union_preserves_count =
  QCheck.Test.make ~name:"union preserves tuple count" ~count:40
    (QCheck.make QCheck.Gen.(pair tuple_stream_gen tuple_stream_gen))
    (fun (a, b) ->
      let network =
        Network.create ~n_inputs:2
          ~ops:
            [
              (Sop.union ~arity:2 (), [ Graph.Sys_input 0; Graph.Sys_input 1 ]);
            ]
          ()
      in
      let result = Executor.run network ~inputs:[| a; b |] in
      List.length result.Executor.outputs = List.length a + List.length b)

let suite =
  [
    Alcotest.test_case "value conversions" `Quick test_value_conversions;
    QCheck_alcotest.to_alcotest prop_filter_matches_list_filter;
    QCheck_alcotest.to_alcotest prop_aggregate_count_partitions_input;
    QCheck_alcotest.to_alcotest prop_join_counts_match_bruteforce;
    QCheck_alcotest.to_alcotest prop_union_preserves_count;
    Alcotest.test_case "tuple operations" `Quick test_tuple_operations;
    Alcotest.test_case "tuple merge" `Quick test_tuple_merge;
    Alcotest.test_case "filter and counts" `Quick test_filter_and_counts;
    Alcotest.test_case "map/project/union" `Quick test_map_project_union;
    Alcotest.test_case "tumbling aggregate" `Quick test_tumbling_aggregate;
    Alcotest.test_case "aggregate functions" `Quick test_aggregate_functions;
    Alcotest.test_case "sliding window" `Quick test_sliding_window;
    Alcotest.test_case "gapped window" `Quick test_sliding_window_gapped;
    Alcotest.test_case "distinct dedup" `Quick test_distinct_dedup;
    Alcotest.test_case "equi-join" `Quick test_equi_join;
    Alcotest.test_case "join missing key fails" `Quick test_join_missing_key_fails;
    Alcotest.test_case "recorded logs" `Quick test_recorded_logs;
    Alcotest.test_case "network validation" `Quick test_network_validation;
    Alcotest.test_case "profiler selectivities" `Quick test_profiler_selectivities;
    Alcotest.test_case "profiler feeds placement" `Quick test_profiler_feeds_placement;
    Alcotest.test_case "profiler join pairs" `Quick test_profiler_join_pairs;
    Alcotest.test_case "dist executor matches logical" `Quick
      test_dist_executor_matches_logical;
    Alcotest.test_case "dist executor utilization" `Quick
      test_dist_executor_utilization;
    Alcotest.test_case "dist executor join costing" `Quick
      test_dist_executor_join_pair_costing;
    Alcotest.test_case "dist executor golden" `Quick test_dist_executor_golden;
    Alcotest.test_case "in-service item counts in backlog" `Quick
      test_in_service_backlog;
    Alcotest.test_case "executors agree on pass-through" `Quick
      test_executors_agree;
    Alcotest.test_case "datagen" `Quick test_datagen;
    Alcotest.test_case "datagen tracks trace rates" `Quick test_datagen_rates;
  ]
