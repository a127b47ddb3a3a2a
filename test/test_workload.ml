(* Tests of traces, statistics and the synthetic workload generators. *)

module Stats = Workload.Stats
module Trace = Workload.Trace
module Bmodel = Workload.Bmodel
module Generators = Workload.Generators
module Traces = Workload.Traces

let approx eps = Alcotest.float eps

let test_moments () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.check (approx 1e-9) "mean" 5. (Stats.mean xs);
  Alcotest.check (approx 1e-9) "variance" 4. (Stats.variance xs);
  Alcotest.check (approx 1e-9) "std" 2. (Stats.std xs)

let test_correlation () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = [| 2.; 4.; 6.; 8. |] in
  let zs = [| 8.; 6.; 4.; 2. |] in
  Alcotest.check (approx 1e-9) "perfect positive" 1. (Stats.correlation xs ys);
  Alcotest.check (approx 1e-9) "perfect negative" (-1.) (Stats.correlation xs zs);
  Alcotest.check (approx 1e-9) "constant series" 0.
    (Stats.correlation xs [| 5.; 5.; 5.; 5. |])

let test_autocorrelation_and_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.check (approx 1e-9) "lag 0" 1. (Stats.autocorrelation xs 0);
  Alcotest.check (approx 1e-9) "p0" 1. (Stats.percentile xs 0.);
  Alcotest.check (approx 1e-9) "p100" 5. (Stats.percentile xs 100.);
  Alcotest.check (approx 1e-9) "p50" 3. (Stats.percentile xs 50.)

let test_trace_basics () =
  let t = Trace.create ~dt:0.5 [| 2.; 4.; 6.; 8. |] in
  Alcotest.check (approx 1e-9) "duration" 2. (Trace.duration t);
  Alcotest.check (approx 1e-9) "mean" 5. (Trace.mean_rate t);
  Alcotest.check (approx 1e-9) "rate at 0.75" 4. (Trace.rate_at t 0.75);
  Alcotest.check (approx 1e-9) "rate clamps at end" 8. (Trace.rate_at t 99.);
  let c = Trace.coarsen t 2 in
  Alcotest.(check int) "coarsen length" 2 (Trace.length c);
  Alcotest.check (approx 1e-9) "coarsen preserves mean" 5. (Trace.mean_rate c);
  Alcotest.check (approx 1e-9) "normalized mean" 1.
    (Trace.mean_rate (Trace.normalize t))

let test_trace_validation () =
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Trace.create: negative rate") (fun () ->
      ignore (Trace.create ~dt:1. [| 1.; -1. |]));
  Alcotest.check_raises "bad dt"
    (Invalid_argument "Trace.create: dt must be positive") (fun () ->
      ignore (Trace.create ~dt:0. [| 1. |]))

let test_bmodel_conservation () =
  let rng = Random.State.make [| 42 |] in
  let values = Bmodel.generate ~rng ~bias:0.7 ~levels:10 ~total:1000. in
  Alcotest.(check int) "2^levels values" 1024 (Array.length values);
  Alcotest.check (approx 1e-6) "volume conserved" 1000.
    (Array.fold_left ( +. ) 0. values);
  Alcotest.(check bool) "all nonnegative" true
    (Array.for_all (fun v -> v >= 0.) values)

let test_bmodel_flat_at_half () =
  let rng = Random.State.make [| 1 |] in
  let values = Bmodel.generate ~rng ~bias:0.5 ~levels:6 ~total:64. in
  Alcotest.(check bool) "bias 0.5 is flat" true
    (Array.for_all (fun v -> abs_float (v -. 1.) < 1e-9) values)

let test_bmodel_cv_calibration () =
  (* Analytic inverse round-trips... *)
  let levels = 10 in
  List.iter
    (fun cv ->
      let bias = Bmodel.bias_for_cv ~cv ~levels in
      Alcotest.check (approx 1e-6)
        (Printf.sprintf "cv round-trip %.2f" cv)
        cv
        (Bmodel.cv_of_bias ~bias ~levels))
    [ 0.2; 0.5; 1.0 ];
  (* ...and empirical CV lands in the right ballpark (single cascade
     realisations fluctuate, so the tolerance is loose). *)
  let rng = Random.State.make [| 7 |] in
  let trials = 20 in
  let acc = ref 0. in
  for _ = 1 to trials do
    let t = Bmodel.trace ~rng ~bias:0.62 ~levels ~mean_rate:1. ~dt:1. in
    acc := !acc +. Trace.cv t
  done;
  let mean_cv = !acc /. float_of_int trials in
  let analytic = Bmodel.cv_of_bias ~bias:0.62 ~levels in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.3f near analytic %.3f" mean_cv analytic)
    true
    (abs_float (mean_cv -. analytic) < 0.4 *. analytic)

let test_trace_kinds_ordering () =
  let rng = Random.State.make [| 2026 |] in
  let reps = 10 in
  let mean_cv kind =
    let acc = ref 0. in
    for _ = 1 to reps do
      acc := !acc +. Trace.cv (Traces.synthesize ~rng kind)
    done;
    !acc /. float_of_int reps
  in
  let pkt = mean_cv Traces.Pkt and tcp = mean_cv Traces.Tcp in
  let http = mean_cv Traces.Http in
  Alcotest.(check bool)
    (Printf.sprintf "cv ordering PKT(%.2f) < TCP(%.2f) < HTTP(%.2f)" pkt tcp http)
    true
    (pkt < tcp && tcp < http)

let test_self_similarity () =
  (* The b-model stays bursty when aggregated 16x; Poisson noise does
     not (its CV shrinks ~4x).  This is the Figure 2 "similar behaviour
     at other time-scales" property. *)
  let rng = Random.State.make [| 77 |] in
  let bursty = Bmodel.trace ~rng ~bias:0.75 ~levels:12 ~mean_rate:100. ~dt:1. in
  let smooth = Generators.poisson_counts ~rng ~n:4096 ~dt:1. ~mean_rate:100. in
  let retention t = Trace.cv (Trace.coarsen t 16) /. Trace.cv t in
  Alcotest.(check bool) "bursty trace retains burstiness under aggregation" true
    (retention bursty > 2. *. retention smooth)

let test_hurst_discriminates () =
  let rng = Random.State.make [| 5 |] in
  let bursty = Bmodel.trace ~rng ~bias:0.75 ~levels:12 ~mean_rate:100. ~dt:1. in
  let smooth = Generators.poisson_counts ~rng ~n:4096 ~dt:1. ~mean_rate:100. in
  let hb = Stats.hurst_rs bursty.Trace.rates in
  let hs = Stats.hurst_rs smooth.Trace.rates in
  Alcotest.(check bool)
    (Printf.sprintf "hurst bursty %.2f > smooth %.2f" hb hs)
    true (hb > hs +. 0.1)

let test_sinusoid_and_flash_crowd () =
  let s = Generators.sinusoid ~n:100 ~dt:1. ~mean_rate:10. ~amplitude:0.5 ~period:50. in
  Alcotest.check (approx 0.2) "sinusoid mean" 10. (Trace.mean_rate s);
  Alcotest.(check bool) "sinusoid nonnegative" true
    (Array.for_all (fun r -> r >= 0.) s.Trace.rates);
  let rng = Random.State.make [| 3 |] in
  let f =
    Generators.flash_crowd ~rng ~n:500 ~dt:1. ~base_rate:10. ~spike_prob:0.02
      ~spike_factor:5. ~decay:0.8
  in
  Alcotest.(check bool) "flash crowd at least base" true
    (Array.for_all (fun r -> r >= 10. -. 1e-9) f.Trace.rates);
  Alcotest.(check bool) "flash crowd spikes happened" true
    (Array.exists (fun r -> r > 20.) f.Trace.rates)

let test_arrival_generation () =
  let trace = Trace.create ~dt:1. [| 10.; 20.; 0.; 5. |] in
  let det = Generators.deterministic_arrivals ~trace in
  Alcotest.(check int) "deterministic count" 35 (List.length det);
  Alcotest.(check bool) "ascending" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 34) det) (List.tl det));
  Alcotest.(check bool) "no arrivals in silent interval" true
    (List.for_all (fun t -> t < 2. || t >= 3.) det);
  let rng = Random.State.make [| 11 |] in
  let total = ref 0 in
  let reps = 50 in
  for _ = 1 to reps do
    total := !total + List.length (Generators.poisson_arrivals ~rng ~trace)
  done;
  let mean = float_of_int !total /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "poisson mean %.1f near 35" mean)
    true
    (abs_float (mean -. 35.) < 3.)

let prop_bmodel_conserves =
  QCheck.Test.make ~name:"bmodel conserves volume" ~count:50
    (QCheck.make
       QCheck.Gen.(triple (0 -- 10) (float_range 0.5 0.95) (float_range 0. 1000.)))
    (fun (levels, bias, total) ->
      let bias = Float.min bias 0.949 in
      let rng = Random.State.make [| levels; int_of_float (bias *. 1000.) |] in
      let values = Bmodel.generate ~rng ~bias ~levels ~total in
      abs_float (Array.fold_left ( +. ) 0. values -. total) < 1e-6 *. (1. +. total))

let prop_coarsen_preserves_mean =
  QCheck.Test.make ~name:"coarsen preserves mean rate" ~count:50
    (QCheck.make
       QCheck.Gen.(
         let* k = 1 -- 4 in
         let* groups = 1 -- 8 in
         let* rates =
           array_size (return (k * groups)) (float_bound_inclusive 50.)
         in
         return (k, rates)))
    (fun (k, rates) ->
      let t = Trace.create ~dt:1. rates in
      let c = Trace.coarsen t k in
      abs_float (Trace.mean_rate c -. Trace.mean_rate t) < 1e-9)

let test_trace_combinators () =
  let a = Trace.create ~dt:1. [| 1.; 2.; 3. |] in
  let b = Trace.create ~dt:1. [| 10.; 20.; 30. |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 11.; 22.; 33. |]
    (Trace.add a b).Trace.rates;
  Alcotest.(check (array (float 1e-12))) "concat"
    [| 1.; 2.; 3.; 10.; 20.; 30. |]
    (Trace.concat a b).Trace.rates;
  Alcotest.(check (array (float 1e-12))) "map_rates" [| 2.; 4.; 6. |]
    (Trace.map_rates (fun r -> 2. *. r) a).Trace.rates;
  Alcotest.(check bool) "dt mismatch rejected" true
    (try
       ignore (Trace.add a (Trace.create ~dt:2. [| 1.; 1.; 1. |]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative map rejected" true
    (try
       ignore (Trace.map_rates (fun r -> r -. 5.) a);
       false
     with Invalid_argument _ -> true)

let test_trace_io_roundtrip () =
  let t = Trace.create ~dt:0.25 [| 1.5; 0.; 3.25; 100.125 |] in
  let back =
    Result.get_ok (Workload.Trace_io.of_string (Workload.Trace_io.to_string t))
  in
  Alcotest.check (approx 1e-15) "dt preserved" t.Trace.dt back.Trace.dt;
  Alcotest.(check (array (float 1e-15))) "rates preserved" t.Trace.rates
    back.Trace.rates;
  let path = Filename.temp_file "rodtrace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace_io.save t ~path;
      let loaded = Result.get_ok (Workload.Trace_io.load ~path) in
      Alcotest.(check (array (float 1e-15))) "file round-trip" t.Trace.rates
        loaded.Trace.rates)

let test_trace_io_rejects_garbage () =
  List.iter
    (fun (text, line) ->
      let expected = Printf.sprintf "line %d: " line in
      match Workload.Trace_io.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S rejected at %s(%s)" text expected msg)
          true
          (String.starts_with ~prefix:expected msg))
    [
      ("", 1);
      ("nonsense\n1\n2\n", 1);
      ("# rodtrace dt=abc\n1\n", 1);
      ("# rodtrace dt=1\nxyz\n", 2);
      ("# rodtrace dt=nan\n1\n", 1);
      ("# rodtrace dt=-1\n1\n", 1);
      ("# rodtrace dt=1\n1\n\nnan\n", 4);
      ("# rodtrace dt=1\ninf\n", 2);
      ("# rodtrace dt=1\n3\n-2\n", 3);
      ("# rodtrace dt=1\n", 1);
    ];
  match Workload.Trace_io.load ~path:"no/such/trace.txt" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "moments" `Quick test_moments;
    Alcotest.test_case "trace combinators" `Quick test_trace_combinators;
    Alcotest.test_case "trace io roundtrip" `Quick test_trace_io_roundtrip;
    Alcotest.test_case "trace io rejects garbage" `Quick
      test_trace_io_rejects_garbage;
    Alcotest.test_case "correlation" `Quick test_correlation;
    Alcotest.test_case "autocorrelation/percentile" `Quick
      test_autocorrelation_and_percentile;
    Alcotest.test_case "trace basics" `Quick test_trace_basics;
    Alcotest.test_case "trace validation" `Quick test_trace_validation;
    Alcotest.test_case "bmodel conservation" `Quick test_bmodel_conservation;
    Alcotest.test_case "bmodel flat at bias 0.5" `Quick test_bmodel_flat_at_half;
    Alcotest.test_case "bmodel cv calibration" `Quick test_bmodel_cv_calibration;
    Alcotest.test_case "PKT/TCP/HTTP cv ordering" `Quick test_trace_kinds_ordering;
    Alcotest.test_case "self-similarity across scales" `Slow test_self_similarity;
    Alcotest.test_case "hurst discriminates" `Slow test_hurst_discriminates;
    Alcotest.test_case "sinusoid and flash crowd" `Quick
      test_sinusoid_and_flash_crowd;
    Alcotest.test_case "arrival generation" `Quick test_arrival_generation;
    QCheck_alcotest.to_alcotest prop_bmodel_conserves;
    QCheck_alcotest.to_alcotest prop_coarsen_preserves_mean;
  ]
