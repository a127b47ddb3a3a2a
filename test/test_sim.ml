(* Tests of the discrete-event simulator: event queue, single-operator
   calibration, selectivity, joins, overload behaviour and the
   feasibility probe. *)

module Vec = Linalg.Vec
module Trace = Workload.Trace
module Generators = Workload.Generators
module Engine = Dsim.Engine
module Probe = Dsim.Probe
module Sim_metrics = Dsim.Sim_metrics
module Event_queue = Dsim.Event_queue

let approx eps = Alcotest.float eps

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  Event_queue.push q ~time:1. "a2";
  let order = ref [] in
  while not (Event_queue.is_empty q) do
    order := Event_queue.pop q :: !order
  done;
  Alcotest.(check (list string)) "time then insertion order"
    [ "a"; "a2"; "b"; "c" ] (List.rev !order);
  Alcotest.(check bool) "empty after drain" true (Event_queue.is_empty q)

let test_event_queue_many () =
  let q = Event_queue.create () in
  let rng = Random.State.make [| 8 |] in
  for i = 0 to 999 do
    Event_queue.push q ~time:(Random.State.float rng 100.) i
  done;
  let last = ref neg_infinity in
  let sorted = ref true in
  let count = ref 0 in
  while not (Event_queue.is_empty q) do
    let t = Event_queue.min_time q in
    ignore (Event_queue.pop q : int);
    if t < !last then sorted := false;
    last := t;
    incr count
  done;
  Alcotest.(check bool) "nondecreasing" true !sorted;
  Alcotest.(check int) "all popped" 1000 !count

(* Draining to empty and filling again keeps (time, insertion) order
   and [min_time] across the cycles. *)
let test_event_queue_refill () =
  let q = Event_queue.create () in
  Alcotest.(check (float 0.)) "empty min_time" infinity
    (Event_queue.min_time q);
  let drain () =
    let rec go acc =
      if Event_queue.is_empty q then List.rev acc
      else go (Event_queue.pop q :: acc)
    in
    go []
  in
  for cycle = 0 to 3 do
    let base = float_of_int cycle in
    List.iter
      (fun (dt, x) -> Event_queue.push q ~time:(base +. dt) x)
      [ (0.5, "c"); (0.25, "a"); (0.5, "d"); (0.25, "b"); (0.75, "e") ];
    Alcotest.(check (float 0.)) "min_time" (base +. 0.25)
      (Event_queue.min_time q);
    Alcotest.(check (list string))
      (Printf.sprintf "cycle %d order" cycle)
      [ "a"; "b"; "c"; "d"; "e" ] (drain ());
    Alcotest.(check (float 0.)) "drained min_time" infinity
      (Event_queue.min_time q)
  done

(* Refilling a drained queue reuses its array: one push costs a few
   words, not a fresh capacity-sized array. *)
let test_event_queue_refill_allocation () =
  let q = Event_queue.create () in
  for i = 0 to 99_999 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop q : int)
  done;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  Event_queue.push q ~time:1. 0;
  let used = words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "push after drain allocated %.0f words" used)
    true (used < 64.)

(* A pop returns the bare payload: no option, no tuple, no words. *)
let test_event_queue_pop_allocation () =
  let q = Event_queue.create () in
  for i = 0 to 999 do
    Event_queue.push q ~time:(float_of_int (i * 7 mod 1000)) i
  done;
  let before = Gc.minor_words () in
  let sum = ref 0 in
  while not (Event_queue.is_empty q) do
    sum := !sum + Event_queue.pop q
  done;
  let used = Gc.minor_words () -. before in
  Alcotest.(check int) "every payload popped" (999 * 1000 / 2) !sum;
  Alcotest.(check bool)
    (Printf.sprintf "1000 pops allocated %.0f words" used)
    true (used < 100.);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Event_queue.pop: empty queue")
    (fun () -> ignore (Event_queue.pop q : int))

(* --- source merge --------------------------------------------------- *)

module Source_merge = Dsim.Source_merge

let drain_merge m =
  let rec go acc =
    if Source_merge.is_empty m then List.rev acc
    else begin
      let entry =
        ( Source_merge.head_stream m,
          Source_merge.head_time m,
          Source_merge.head m )
      in
      Source_merge.advance m;
      go (entry :: acc)
    end
  in
  go []

(* The order a heap preloaded stream by stream, in list order, pops:
   time, then stream index, then list position. *)
let test_source_merge_order () =
  let streams =
    [|
      [ (2., "a2"); (1., "a1"); (2., "a2'"); (9., "late") ];
      [ (1., "b1"); (1., "b1'"); (0.5, "b0") ];
      [];
      [ (2., "d2"); (nan, "nan") ];
    |]
  in
  let m = Source_merge.create ~ts:fst ~until:5. streams in
  Alcotest.(check (list (pair int string)))
    "time, then stream, then list order"
    [
      (1, "b0"); (0, "a1"); (1, "b1"); (1, "b1'"); (0, "a2"); (0, "a2'");
      (3, "d2");
    ]
    (List.map (fun (k, _, (_, tag)) -> (k, tag)) (drain_merge m));
  Alcotest.(check (float 0.)) "exhausted head" infinity
    (Source_merge.head_time m);
  Alcotest.(check (list (list (float 0.))))
    "kept times, sorted per stream"
    [ [ 1.; 2.; 2. ]; [ 0.5; 1.; 1. ]; []; [ 2. ] ]
    (Array.to_list (Array.map Array.to_list (Source_merge.times m)));
  (* [until = infinity] keeps an item stamped [infinity], which still
     gets its turn behind the finite ones. *)
  let m =
    Source_merge.create ~ts:Fun.id ~until:infinity [| [ infinity ]; [ 3. ] |]
  in
  Alcotest.(check (list (pair int (float 0.))))
    "infinite stamp" [ (1, 3.); (0, infinity) ]
    (List.map (fun (k, t, _) -> (k, t)) (drain_merge m));
  Alcotest.(check bool) "no streams" true
    (Source_merge.is_empty (Source_merge.create ~ts:Fun.id ~until:1. [||]))

(* One operator of cost c at rate r: utilization = c*r, latency = c at
   low load (deterministic arrivals never queue). *)
let single_op_graph cost sel =
  Query.Graph.create ~n_inputs:1
    ~ops:[ (Query.Op.filter ~cost ~sel (), [ Query.Graph.Sys_input 0 ]) ]
    ()

let run_constant ?(seed = 1) ?(cap = 1.) ~graph ~assignment ~rates ~duration () =
  let caps = Vec.create (1 + Array.fold_left max 0 assignment) cap in
  let arrivals =
    Array.map
      (fun rate ->
        Generators.deterministic_arrivals
          ~trace:(Trace.create ~dt:duration [| rate |]))
      rates
  in
  Engine.run ~graph ~assignment ~caps ~arrivals
    ~config:{ Engine.default_config with seed; warmup = 0. }
    ~until:duration ()

let test_single_op_utilization () =
  let graph = single_op_graph 0.002 1. in
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| 100. |] ~duration:50. ()
  in
  Alcotest.check (approx 0.01) "utilization = cost*rate" 0.2
    (Sim_metrics.max_utilization m);
  Alcotest.(check int) "arrivals" 5000 m.Sim_metrics.arrivals;
  Alcotest.(check int) "all processed" 5000 m.Sim_metrics.items_processed;
  Alcotest.(check int) "sel 1 passes everything" 5000 m.Sim_metrics.outputs;
  Alcotest.check (approx 1e-6) "latency = service time" 0.002
    (Sim_metrics.mean_latency m);
  Alcotest.(check int) "no backlog" 0 m.Sim_metrics.backlog

let test_capacity_scales_service () =
  let graph = single_op_graph 0.002 1. in
  let m =
    run_constant ~cap:2. ~graph ~assignment:[| 0 |] ~rates:[| 100. |]
      ~duration:50. ()
  in
  Alcotest.check (approx 0.01) "double capacity halves utilization" 0.1
    (Sim_metrics.max_utilization m);
  Alcotest.check (approx 1e-6) "and halves latency" 0.001
    (Sim_metrics.mean_latency m)

let test_selectivity_thins_output () =
  let graph = single_op_graph 0.0001 0.3 in
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| 200. |] ~duration:50. ()
  in
  let expected = 0.3 *. float_of_int m.Sim_metrics.arrivals in
  Alcotest.(check bool)
    (Printf.sprintf "outputs %d near %.0f" m.Sim_metrics.outputs expected)
    true
    (abs_float (float_of_int m.Sim_metrics.outputs -. expected)
    < 0.1 *. expected)

let test_overload_builds_backlog () =
  let graph = single_op_graph 0.02 1. in
  (* Rate 100 x cost 0.02 = demand 2.0 > capacity 1. *)
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| 100. |] ~duration:20. ()
  in
  Alcotest.(check bool) "utilization saturates" true
    (Sim_metrics.max_utilization m > 0.99);
  (* Half the work cannot be served: ~1000 tuples remain. *)
  Alcotest.(check bool)
    (Printf.sprintf "backlog %d large" m.Sim_metrics.backlog)
    true
    (m.Sim_metrics.backlog > 800)

let test_chain_latency_accumulates () =
  let graph = Query.Builder.chain ~n_ops:3 ~cost:0.001 ~sel:1. () in
  let m =
    run_constant ~graph ~assignment:[| 0; 0; 0 |] ~rates:[| 50. |] ~duration:20. ()
  in
  Alcotest.check (approx 2e-4) "three stages of 1 ms" 0.003
    (Sim_metrics.mean_latency m)

let test_network_delay_added () =
  let graph = Query.Builder.chain ~n_ops:2 ~cost:0.001 ~sel:1. () in
  let same = run_constant ~graph ~assignment:[| 0; 0 |] ~rates:[| 10. |] ~duration:20. () in
  let split = run_constant ~graph ~assignment:[| 0; 1 |] ~rates:[| 10. |] ~duration:20. () in
  let diff = Sim_metrics.mean_latency split -. Sim_metrics.mean_latency same in
  Alcotest.check (approx 1e-4) "one network hop"
    Engine.default_config.Engine.net_delay diff

(* Join calibration: two streams at rates ru, rv with window w.  Each
   arriving u-tuple scans ~rv*w candidates, so the join's CPU demand is
   c * w * ru * rv and its output rate s * w * ru * rv (Example 3). *)
let test_join_load_and_output () =
  let w = 0.5 and c = 1e-4 and s = 0.2 in
  let ru = 40. and rv = 30. in
  let graph =
    Query.Graph.create ~n_inputs:2
      ~ops:
        [
          ( Query.Op.join ~window:w ~cost_per_pair:c ~sel:s (),
            [ Query.Graph.Sys_input 0; Query.Graph.Sys_input 1 ] );
        ]
      ()
  in
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| ru; rv |] ~duration:50. ()
  in
  let expected_util = c *. w *. ru *. rv in
  Alcotest.(check bool)
    (Printf.sprintf "join utilization %.4f near %.4f"
       (Sim_metrics.max_utilization m) expected_util)
    true
    (abs_float (Sim_metrics.max_utilization m -. expected_util)
    < 0.15 *. expected_util);
  let expected_outputs = s *. w *. ru *. rv *. 50. in
  Alcotest.(check bool)
    (Printf.sprintf "join outputs %d near %.0f" m.Sim_metrics.outputs
       expected_outputs)
    true
    (abs_float (float_of_int m.Sim_metrics.outputs -. expected_outputs)
    < 0.15 *. expected_outputs)

let test_load_shedding_bounds_latency () =
  (* Demand 2x capacity: lossless queues blow up; a 20-item bound sheds
     roughly half the tuples and keeps latency bounded. *)
  let graph = single_op_graph 0.02 1. in
  let caps = Vec.of_list [ 1. ] in
  let arrivals =
    [|
      Generators.deterministic_arrivals
        ~trace:(Trace.create ~dt:20. [| 100. |]);
    |]
  in
  let run shed_above =
    Engine.run ~graph ~assignment:[| 0 |] ~caps ~arrivals
      ~config:{ Engine.default_config with shed_above } ~until:20. ()
  in
  let lossless = run None in
  let shedding = run (Some 20) in
  Alcotest.(check int) "lossless drops nothing" 0 lossless.Sim_metrics.dropped;
  Alcotest.(check bool)
    (Printf.sprintf "shed roughly half (%d of %d)" shedding.Sim_metrics.dropped
       shedding.Sim_metrics.arrivals)
    true
    (abs (shedding.Sim_metrics.dropped - 1000) < 150);
  Alcotest.(check bool) "shedding bounds the queue" true
    (shedding.Sim_metrics.backlog <= 21);
  Alcotest.(check bool)
    (Printf.sprintf "latency bounded (%.2fs vs %.2fs)"
       (Sim_metrics.p95_latency shedding)
       (Sim_metrics.p95_latency lossless))
    true
    (Sim_metrics.p95_latency shedding < 0.5
    && Sim_metrics.p95_latency lossless > 2.);
  (* Shedding keeps the node saturated: it drops load, not throughput. *)
  Alcotest.(check bool) "still saturated" true
    (Sim_metrics.max_utilization shedding > 0.99)

let test_heterogeneous_capacity_engine () =
  (* The same work on a half-speed node takes twice the wall time. *)
  let graph = single_op_graph 0.004 1. in
  let arrivals =
    [| Generators.deterministic_arrivals ~trace:(Trace.create ~dt:20. [| 50. |]) |]
  in
  let slow =
    Engine.run ~graph ~assignment:[| 0 |] ~caps:(Vec.of_list [ 0.5 ])
      ~arrivals ~until:20. ()
  in
  Alcotest.check (approx 0.01) "slow node utilization doubles" 0.4
    (Sim_metrics.max_utilization slow);
  Alcotest.check (approx 1e-6) "slow node latency doubles" 0.008
    (Sim_metrics.mean_latency slow)

let test_warmup_clips_stats () =
  let graph = single_op_graph 0.002 1. in
  let arrivals =
    [| Generators.deterministic_arrivals ~trace:(Trace.create ~dt:20. [| 100. |]) |]
  in
  let m =
    Engine.run ~graph ~assignment:[| 0 |] ~caps:(Vec.of_list [ 1. ]) ~arrivals
      ~config:{ Engine.default_config with warmup = 10. }
      ~until:20. ()
  in
  (* Only the second half is measured: ~1000 arrivals, same rates. *)
  Alcotest.(check bool)
    (Printf.sprintf "arrivals measured after warmup only (%d)"
       m.Sim_metrics.arrivals)
    true
    (abs (m.Sim_metrics.arrivals - 1000) <= 1);
  Alcotest.check (approx 0.01) "utilization unaffected by warmup" 0.2
    (Sim_metrics.max_utilization m)

let test_probe_agrees_with_analysis () =
  let graph = Query.Builder.example2 () in
  let problem =
    Rod.Problem.of_graph graph ~caps:(Rod.Problem.homogeneous_caps ~n:2 ~cap:1.)
  in
  (* Scale Example 2 so costs are per-second CPU fractions: divide
     everything by 1000 (cost 4 cycles -> 4 ms). *)
  ignore problem;
  let graph_ms =
    Query.Builder.example1 ~c1:4e-3 ~c2:6e-3 ~c3:9e-3 ~c4:4e-3 ~s1:1. ~s3:0.5
  in
  let assignment = [| 0; 1; 1; 0 |] in
  let caps = Vec.of_list [ 1.; 1. ] in
  (* Plan (a): node0 4e-3 r1 + 2e-3 r2 <= 1; node1 6e-3 r1 + 9e-3 r2 <= 1. *)
  let feasible_point = Vec.of_list [ 50.; 50. ] in
  let infeasible_point = Vec.of_list [ 160.; 30. ] in
  let v1 =
    Probe.probe_point ~duration:10. ~graph:graph_ms ~assignment ~caps
      ~rates:feasible_point ()
  in
  Alcotest.(check bool) "interior point simulates feasible" true v1.Probe.feasible;
  let v2 =
    Probe.probe_point ~duration:10. ~graph:graph_ms ~assignment ~caps
      ~rates:infeasible_point ()
  in
  Alcotest.(check bool) "exterior point simulates infeasible" false
    v2.Probe.feasible

let test_simulate_traces () =
  let graph = Query.Builder.chain ~n_ops:2 ~cost:0.001 ~sel:1. () in
  let trace = Trace.create ~dt:1. (Array.make 10 50.) in
  let rng = Random.State.make [| 6 |] in
  let m =
    Probe.simulate_traces ~rng ~graph ~assignment:[| 0; 1 |]
      ~caps:(Vec.of_list [ 1.; 1. ])
      ~traces:[| trace |] ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "roughly 500 arrivals (%d)" m.Sim_metrics.arrivals)
    true
    (abs (m.Sim_metrics.arrivals - 500) < 120);
  (* Each arrival is processed by both stages eventually; under light
     load outputs track arrivals closely (a few may be in flight). *)
  Alcotest.(check bool) "outputs close to arrivals" true
    (abs (m.Sim_metrics.outputs - m.Sim_metrics.arrivals) <= 5);
  Alcotest.(check bool) "two work items per arrival" true
    (abs (m.Sim_metrics.items_processed - (2 * m.Sim_metrics.arrivals)) <= 10)

let prop_conservation_single_op =
  QCheck.Test.make ~name:"tuple conservation (single op)" ~count:20
    (QCheck.make QCheck.Gen.(pair (10 -- 200) (1 -- 30)))
    (fun (rate, seed) ->
      let graph = single_op_graph 0.001 1. in
      let m =
        run_constant ~seed ~graph ~assignment:[| 0 |]
          ~rates:[| float_of_int rate |] ~duration:5. ()
      in
      m.Sim_metrics.arrivals
      = m.Sim_metrics.items_processed + m.Sim_metrics.backlog)

(* --- engine bookkeeping golden ------------------------------------ *)

(* A bursty eight-operator graph on three nodes that reaches every
   bookkeeping path of [Engine.run]: three readers of one input stream,
   joins and a two-input operator with unequal per-input costs fed
   twice from one source, so event tie-breaks depend on reader order; a
   fan-in union; and enough overload that queues, buffers and the
   backlog peak move. *)
let golden_graph () =
  let open Query in
  Graph.create ~n_inputs:2
    ~ops:
      [
        (Op.filter ~cost:0.004 ~sel:0.8 (), [ Graph.Sys_input 0 ]);
        (Op.map ~cost:0.003 (), [ Graph.Sys_input 0 ]);
        ( Op.join ~window:0.2 ~cost_per_pair:1e-4 ~sel:0.1 (),
          [ Graph.Op_output 0; Graph.Op_output 0 ] );
        ( Op.union ~cost:0.002 ~n_inputs:2 (),
          [ Graph.Op_output 1; Graph.Sys_input 1 ] );
        (Op.filter ~cost:0.002 ~sel:0.9 (), [ Graph.Op_output 2 ]);
        (Op.delay ~cost:0.001 ~sel:1.5 (), [ Graph.Op_output 3 ]);
        ( Op.join ~window:0.1 ~cost_per_pair:2e-4 ~sel:0.05 (),
          [ Graph.Sys_input 1; Graph.Sys_input 1 ] );
        ( {
            Op.name = "mix";
            kind =
              Op.Linear
                { costs = [| 0.001; 0.003 |]; selectivities = [| 1.; 0.5 |] };
            out_xfer_cost = 0.;
          },
          [ Graph.Sys_input 0; Graph.Sys_input 0 ] );
      ]
    ()

let golden_run ?dynamic config =
  let rng = Random.State.make [| 17 |] in
  let trace rates = Trace.create ~dt:1. rates in
  let arrivals =
    [|
      Generators.poisson_arrivals ~rng
        ~trace:(trace [| 60.; 150.; 80.; 220.; 40.; 180.; 90.; 120. |]);
      Generators.poisson_arrivals ~rng
        ~trace:(trace [| 100.; 40.; 250.; 60.; 160.; 30.; 200.; 80. |]);
    |]
  in
  Engine.run ~graph:(golden_graph ()) ~assignment:[| 0; 1; 2; 0; 1; 2; 0; 1 |]
    ~caps:(Vec.of_list [ 1.; 1.; 0.8 ])
    ~arrivals ~config ?dynamic ~until:8. ()

let fingerprint name m =
  let open Sim_metrics in
  Printf.sprintf
    "%s items=%d outputs=%d backlog=%d max_backlog=%d dropped=%d lost=%d \
     migrations=%d p50=%h p99=%h"
    name m.items_processed m.outputs m.backlog m.max_backlog m.dropped m.lost
    m.migrations
    (Samples.percentile m.latencies 50.)
    (Samples.percentile m.latencies 99.)

(* One arrival served for 0.5 s on node 0, which crashes at 0.25 s with
   recovery to node 1: the item in service is lost with the node, and
   not also left in the final backlog. *)
let crash_in_service () =
  let open Query in
  let graph =
    Graph.create ~n_inputs:1
      ~ops:[ (Op.map ~cost:0.5 (), [ Graph.Sys_input 0 ]) ]
      ()
  in
  let crash = Dsim.Fault.Crash { node = 0; at = 0.25; recovery = [| 1 |] } in
  Engine.run ~graph ~assignment:[| 0 |] ~caps:(Vec.of_list [ 1.; 1. ])
    ~arrivals:[| [ 0. ] |]
    ~config:{ Engine.default_config with warmup = 0.; faults = [ crash ] }
    ~until:1. ()

let golden_fingerprints () =
  let base = { Engine.default_config with seed = 5; warmup = 1. } in
  let crash =
    Dsim.Fault.Crash { node = 0; at = 3.5; recovery = [| 1; 1; 2; 2; 1; 2; 1; 2 |] }
  in
  (* Every tick moves two operators one node along, so buffers fill
     during each drain and state transfer and are flushed after. *)
  let decide ~time ~utilization:_ ~op_cpu:_ ~rates:_ ~assignment =
    let k = int_of_float (time /. 0.5) in
    List.map
      (fun op -> (op, (assignment.(op) + 1) mod 3))
      [ k mod 8; (k + 3) mod 8 ]
  in
  let dynamic =
    {
      Engine.interval = 0.5;
      migration_delay = 0.1;
      drain_delay = 0.05;
      state_delay = (fun op -> 0.02 *. float_of_int op);
      decide;
    }
  in
  [
    fingerprint "plain" (golden_run base);
    fingerprint "shed" (golden_run { base with shed_above = Some 4 });
    fingerprint "crash" (golden_run { base with faults = [ crash ] });
    fingerprint "dynamic" (golden_run ~dynamic base);
    fingerprint "dynamic+crash"
      (golden_run ~dynamic { base with faults = [ crash ] });
    fingerprint "crash-in-service" (crash_in_service ());
  ]

(* Any change to backlog accounting, reader order or event tie-breaks
   shows here.  [max_backlog] is the peak of the same quantity as the
   final [backlog] (queued, buffered and in service), so it is never
   below it. *)
let golden_expected =
  [
    "plain items=8714 outputs=4073 backlog=1954 max_backlog=2011 dropped=0 \
     lost=0 migrations=0 p50=0x1.253e4e7759cap+0 p99=0x1.6a4ca1e47f81ap+1";
    "shed items=7488 outputs=3355 backlog=4 max_backlog=13 dropped=2965 \
     lost=0 migrations=0 p50=0x1.673115d23cp-7 p99=0x1.f0f36a78357b3p-6";
    "crash items=7120 outputs=3155 backlog=1906 max_backlog=1910 dropped=0 \
     lost=496 migrations=0 p50=0x1.172150204cb3p-1 p99=0x1.479baefef7f35p+1";
    "dynamic items=8553 outputs=3918 backlog=2037 max_backlog=2118 \
     dropped=0 lost=0 migrations=32 p50=0x1.1cf04db3e965cp-1 \
     p99=0x1.a404d01b2475ap+1";
    "dynamic+crash items=5468 outputs=2236 backlog=3679 max_backlog=3679 \
     dropped=0 lost=54 migrations=32 p50=0x1.5d4482d55a9d8p-2 \
     p99=0x1.6b4b4c728e03ap+0";
    "crash-in-service items=0 outputs=0 backlog=0 max_backlog=1 dropped=0 \
     lost=1 migrations=0 p50=0x0p+0 p99=0x0p+0";
  ]

let test_engine_golden () =
  Alcotest.(check (list string))
    "engine fingerprints" golden_expected (golden_fingerprints ())

let suite =
  [
    Alcotest.test_case "event queue ordering" `Quick test_event_queue_ordering;
    Alcotest.test_case "event queue stress" `Quick test_event_queue_many;
    Alcotest.test_case "event queue refill order" `Quick test_event_queue_refill;
    Alcotest.test_case "event queue refill allocation" `Quick
      test_event_queue_refill_allocation;
    Alcotest.test_case "event queue pop allocation" `Quick
      test_event_queue_pop_allocation;
    Alcotest.test_case "source merge order" `Quick test_source_merge_order;
    Alcotest.test_case "single-op utilization" `Quick test_single_op_utilization;
    Alcotest.test_case "capacity scales service" `Quick test_capacity_scales_service;
    Alcotest.test_case "selectivity thins output" `Quick test_selectivity_thins_output;
    Alcotest.test_case "overload builds backlog" `Quick test_overload_builds_backlog;
    Alcotest.test_case "chain latency accumulates" `Quick test_chain_latency_accumulates;
    Alcotest.test_case "network delay added" `Quick test_network_delay_added;
    Alcotest.test_case "join load and output" `Quick test_join_load_and_output;
    Alcotest.test_case "heterogeneous capacity" `Quick
      test_heterogeneous_capacity_engine;
    Alcotest.test_case "warmup clips stats" `Quick test_warmup_clips_stats;
    Alcotest.test_case "load shedding bounds latency" `Quick
      test_load_shedding_bounds_latency;
    Alcotest.test_case "probe agrees with analysis" `Slow test_probe_agrees_with_analysis;
    Alcotest.test_case "simulate traces" `Quick test_simulate_traces;
    Alcotest.test_case "engine bookkeeping golden" `Quick test_engine_golden;
    QCheck_alcotest.to_alcotest prop_conservation_single_op;
  ]
