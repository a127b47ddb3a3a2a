(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (see DESIGN.md's experiment index): one Registry entry per artifact,
   printed as plain-text tables.

   Part 2 runs Bechamel micro-benchmarks of the placement algorithms,
   the local-search scorer and the replanner, one Test.make per measured
   operation (the place/ and controller/ rungs of the ladder).  The
   results are printed as a table and also written to BENCH_rod.json
   (name -> ns/run, r^2) so the perf trajectory across PRs is diffable.

   Flags: --quick (smaller sweeps), --only <id> (a single experiment;
   with --micro-only, a substring filter on micro benchmark names),
   --list (show experiment ids), --no-micro / --micro-only,
   --json <path> (micro results destination, default BENCH_rod.json). *)

module Problem = Rod.Problem

let has_flag flag = Array.exists (fun a -> a = flag) Sys.argv

let flag_value flag =
  let result = ref None in
  Array.iteri
    (fun i a ->
      if a = flag && i + 1 < Array.length Sys.argv then
        result := Some Sys.argv.(i + 1))
    Sys.argv;
  !result

(* --- part 1: paper artifacts --- *)

let run_experiments ~quick ~only fmt =
  let selected =
    match only with
    | None -> Experiments.Registry.all
    | Some id -> (
      match Experiments.Registry.find id with
      | Some e -> [ e ]
      | None ->
        Format.eprintf "unknown experiment %S; try --list@." id;
        exit 1)
  in
  List.iter
    (fun e ->
      let started = Sys.time () in
      e.Experiments.Registry.run ~quick fmt;
      Format.fprintf fmt "[%s finished in %.1fs cpu]@."
        e.Experiments.Registry.id
        (Sys.time () -. started))
    selected

(* --- part 2: micro-benchmarks --- *)

let fixture ~m ~d ~n_nodes =
  let rng = Random.State.make [| 4242 |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:(m / d)
  in
  let problem =
    Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:n_nodes ~cap:1.)
  in
  (graph, problem)

let micro_tests ?only () =
  let open Bechamel in
  let graph100, problem100 = fixture ~m:100 ~d:5 ~n_nodes:10 in
  let _, problem200 = fixture ~m:200 ~d:5 ~n_nodes:10 in
  let rates = Linalg.Vec.create (Problem.dim problem100) 1. in
  let series =
    Linalg.Mat.init 32 (Problem.dim problem100) (fun t k ->
        float_of_int (((t * 31) + (k * 17)) mod 97) /. 97.)
  in
  let graph10k, problem10k = fixture ~m:10000 ~d:5 ~n_nodes:256 in
  let assignment10k = Rod.Rod_algorithm.place problem10k in
  let rng = Random.State.make [| 7 |] in
  let keep test =
    match only with
    | None -> true
    | Some needles ->
      (* Comma-separated needles select the union of their matches,
         so one invocation can cover several rung families
         (e.g. --only place/,controller/).  Matching is anchored on
         whole '/'-segments — "place/ROD-m200" selects exactly that
         rung, never "place/ROD-m2000". *)
      List.exists
        (fun needle ->
          Benchdiff_core.rung_matches ~needle ("rod/" ^ Test.name test))
        (String.split_on_char ',' needles)
  in
  Test.make_grouped ~name:"rod"
    (List.filter keep
    [
      Test.make ~name:"place/ROD-m100"
        (Staged.stage (fun () -> Rod.Rod_algorithm.place problem100));
      Test.make ~name:"place/ROD-m200"
        (Staged.stage (fun () -> Rod.Rod_algorithm.place problem200));
      Test.make ~name:"place/ROD+SPLIT-m200"
        (Staged.stage
           (* Placement over a split graph: the 200-operator fixture's
              hottest splittable operator expanded into 4 replicas with
              hybrid shares.  The sketch profile and partitioner warm-up
              run once out here — the rung times ROD over the enlarged
              graph, not the sketches. *)
           (let graph, _ = fixture ~m:200 ~d:5 ~n_nodes:10 in
            let keys =
              Workload.Generators.zipf_keys
                ~rng:(Random.State.make [| 99 |])
                ~alpha:1.2 ~n_keys:100_000 ~n:100_000
            in
            let profile = Keyed.Estimator.profile keys in
            let part =
              Keyed.Estimator.hybrid_of_profile ~replicas:4 ~seed:99 profile
            in
            Keyed.Partitioner.warm part keys;
            let op =
              match Keyed.Split.hottest_splittable graph with
              | Some j -> j
              | None -> failwith "bench fixture has no splittable operator"
            in
            let split =
              Keyed.Split.split graph ~op
                ~shares:(Keyed.Partitioner.shares part)
            in
            let problem =
              Problem.of_graph split.Keyed.Split.graph
                ~caps:(Problem.homogeneous_caps ~n:10 ~cap:1.)
            in
            fun () -> Rod.Rod_algorithm.place problem));
      Test.make ~name:"place/ROD-m1000"
        (Staged.stage
           (let _, problem1000 = fixture ~m:1000 ~d:5 ~n_nodes:20 in
            fun () -> Rod.Rod_algorithm.place problem1000));
      Test.make ~name:"place/ROD+LS-m50"
        (Staged.stage
           (let _, problem50 = fixture ~m:50 ~d:5 ~n_nodes:10 in
            fun () -> Rod.Local_search.rod_polished ~samples:256 problem50));
      (* The scale ladder (ROADMAP item 3): each rung roughly an order
         of magnitude up, so the per-PR trajectory toward "1000
         operators under 100 ms" reads straight out of BENCH_rod.json.
         The 1000-operator rung caps passes — rung timings must bound
         the polish loop, not its luck on a given fixture. *)
      Test.make ~name:"place/ROD+LS-m200"
        (Staged.stage
           (let _, problem200' = fixture ~m:200 ~d:5 ~n_nodes:10 in
            fun () -> Rod.Local_search.rod_polished ~samples:256 problem200'));
      Test.make ~name:"place/ROD+LS-m1000-n64"
        (Staged.stage
           (let _, problem1000 = fixture ~m:1000 ~d:5 ~n_nodes:64 in
            fun () ->
              Rod.Local_search.rod_polished ~samples:256 ~max_passes:3
                problem1000));
      Test.make ~name:"place/ROD-m10000-n256"
        (Staged.stage (fun () -> Rod.Rod_algorithm.place problem10k));
      Test.make ~name:"place/LS-scorer-m10000-n256"
        (Staged.stage
           (* The local-search scorer build alone, at the default 2048
              samples: what every replan pays before it scores its
              first candidate. *)
           (fun () ->
             Rod.Local_search.make_scorer problem10k assignment10k 2048));
      Test.make ~name:"place/LLF-m100"
        (Staged.stage (fun () -> Baselines.llf ~rates problem100));
      Test.make ~name:"place/connected-m100"
        (Staged.stage (fun () ->
             Baselines.connected ~rates ~graph:graph100 problem100));
      Test.make ~name:"place/correlation-m100"
        (Staged.stage (fun () -> Baselines.correlation ~series problem100));
      Test.make ~name:"place/random-m100"
        (Staged.stage (fun () -> Baselines.random_balanced ~rng problem100));
      Test.make ~name:"controller/replan-m200"
        (Staged.stage
           (let _, problem = fixture ~m:200 ~d:5 ~n_nodes:10 in
            let assignment = Rod.Rod_algorithm.place problem in
            let l = Problem.total_coefficients problem in
            let c_total = Problem.total_capacity problem in
            let dim = Problem.dim problem in
            (* A drifted rate point (stream 0 well past its mean share)
               so the rung times both replanner phases: margin repair
               and budgeted volume polish. *)
            let drifted =
              Linalg.Vec.init dim (fun k ->
                  let base =
                    0.6 *. c_total /. (float_of_int dim *. l.(k))
                  in
                  if k = 0 then 2.4 *. base else base)
            in
            fun () ->
              Dynamic.Replanner.replan ~samples:1024 ~rates:drifted ~budget:3
                ~cost_of:(fun _ -> 0.)
                problem ~assignment));
      Test.make ~name:"controller/replan-m10000-n256"
        (Staged.stage
           (* One budgeted replan at the end-to-end drift-replan size
              (5 trees x 2000 operators, 256 nodes, 2048 samples) from
              the ROD plan, at a point 2% past its boundary along a
              stream-0-heavy direction: margin repair, then volume
              polish. *)
           (let direction =
              Linalg.Vec.init (Problem.dim problem10k) (fun k ->
                  if k = 0 then 3. else 1.)
            in
            let headroom =
              (Dynamic.Margin.of_assignment problem10k
                 ~assignment:assignment10k ~rates:direction)
                .Dynamic.Margin.headroom
            in
            let rates = Linalg.Vec.scale (1.02 *. headroom) direction in
            let cost_of = Dynamic.Statesize.graph_cost graph10k in
            fun () ->
              Dynamic.Replanner.replan ~samples:2048 ~rates ~budget:3 ~cost_of
                problem10k ~assignment:assignment10k));
    ])

(* Machine-readable twin of the plain-text table.  Since schema v2 the
   file accumulates one record per run (git revision + timings), so
   the perf trajectory across PRs reads straight out of git history;
   a v1 or foreign file is replaced by a fresh v2 file. *)

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> None
  | ic -> (
    let line = try Some (input_line ic) with End_of_file -> None in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> (
      match line with Some l when l <> "" -> Some l | Some _ | None -> None)
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None)

let record_string ~quick rows =
  let buffer = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v in
  out "    {\n";
  out "      \"rev\": %s,\n"
    (match git_rev () with Some r -> Printf.sprintf "%S" r | None -> "null");
  out "      \"quick\": %b,\n" quick;
  out "      \"domains\": %d,\n" (Parallel.Pool.ways (Parallel.Pool.global ()));
  (* The registry snapshot rides along with each record, so the
     counter/histogram totals behind the timings land in git history
     next to them (schema rod-obs-metrics/1, re-indented to nest). *)
  let obs_json =
    let doc = String.trim (Obs.Export.metrics_json (Obs.snapshot ())) in
    String.concat "\n      " (String.split_on_char '\n' doc)
  in
  out "      \"obs\": %s,\n" obs_json;
  out "      \"results\": {\n";
  List.iteri
    (fun idx (name, ns, r2) ->
      out "        %S: { \"ns_per_run\": %s, \"r_square\": %s }%s\n" name
        (num ns) (num r2)
        (if idx = List.length rows - 1 then "" else ","))
    rows;
  out "      }\n";
  out "    }";
  Buffer.contents buffer

let json_tail = "\n  ]\n}\n"

let write_json ~path ~quick rows =
  let record = record_string ~quick rows in
  let prior =
    if Sys.file_exists path then (
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic))))
    else None
  in
  let appendable text =
    let tl = String.length json_tail and l = String.length text in
    let mem sub =
      let sl = String.length sub in
      let rec scan i =
        i + sl <= l && (String.sub text i sl = sub || scan (i + 1))
      in
      scan 0
    in
    mem "\"schema\": \"rod-microbench/2\""
    && l >= tl
    && String.sub text (l - tl) tl = json_tail
  in
  let content =
    match prior with
    | Some text when appendable text ->
      String.sub text 0 (String.length text - String.length json_tail)
      ^ ",\n" ^ record ^ json_tail
    | Some _ | None ->
      "{\n  \"schema\": \"rod-microbench/2\",\n  \"records\": [\n" ^ record
      ^ json_tail
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let run_micro ~quick ~only ~json fmt =
  let open Bechamel in
  Format.fprintf fmt
    "@.==================@.= Microbenchmarks =@.==================@.";
  let quota = if quick then 0.25 else 1.0 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:true ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ?only ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let time_ns =
          match Analyze.OLS.estimates result with
          | Some (t :: _) -> t
          | Some [] | None -> nan
        in
        let r2 =
          match Analyze.OLS.r_square result with Some r -> r | None -> nan
        in
        (name, time_ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  if rows = [] then
    Format.fprintf fmt "no micro benchmark matches the --only filter@."
  else begin
    Format.fprintf fmt "%-34s %14s %8s@." "benchmark" "time/run" "r^2";
    List.iter
      (fun (name, ns, r2) ->
        let pretty =
          if Float.is_nan ns then "n/a"
          else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
          else Printf.sprintf "%.1f ns" ns
        in
        Format.fprintf fmt "%-34s %14s %8.4f@." name pretty r2)
      rows;
    write_json ~path:json ~quick rows;
    Format.fprintf fmt "[micro results written to %s]@." json
  end

let () =
  let quick = has_flag "--quick" in
  let fmt = Format.std_formatter in
  if has_flag "--list" then begin
    List.iter print_endline (Experiments.Registry.ids ());
    exit 0
  end;
  (match flag_value "--csv" with
  | Some dir ->
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Format.eprintf "--csv: %s is not an existing directory@." dir;
      exit 1
    end;
    Experiments.Report.set_csv_dir (Some dir)
  | None -> ());
  let only = flag_value "--only" in
  let micro_only = has_flag "--micro-only" in
  let json =
    match flag_value "--json" with Some p -> p | None -> "BENCH_rod.json"
  in
  if not micro_only then run_experiments ~quick ~only fmt;
  (* Micros run by default (no --only, no --no-micro) and always under
     --micro-only, where --only narrows by benchmark-name substring
     instead of selecting an experiment. *)
  let micro_filter = if micro_only then only else None in
  if micro_only || ((not (has_flag "--no-micro")) && only = None) then
    run_micro ~quick ~only:micro_filter ~json fmt;
  Format.pp_print_flush fmt ()
