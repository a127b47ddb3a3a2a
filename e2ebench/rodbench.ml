(* The end-to-end benchmark driver.

     rodbench --workload NAME --seed N --seconds S --trace 0|1
     rodbench --pin-monitoring PATH

   Runs one workload in this process, from the root of the repository.
   With --trace 0 it times the workload untraced in rounds of set-up,
   polished deploy, one pass of the drift chain and engine runs, for S
   seconds.  With --trace 1 it
   alternates untraced and traced passes (set-up, deploy, one chain
   pass, one engine run each) for S seconds and reports per-layer self
   times from the traced ones.  Either way the last line of standard
   output is one JSON object; the exit code is 1 when an output check
   failed.  --pin-monitoring regenerates the pinned cost model of
   monitoring-cql.  See NOTES.md. *)

module W = Workload_sig

let end_to_end =
  [
    ("setup_s", "s");
    ("deploy_s", "s");
    ("replan_s", "s");
    ("engine_items_per_s", "items/s");
    ("ratio", "1");
    ("latency_p50_s", "s");
    ("latency_p99_s", "s");
    ("drift_feasible_frac", "1");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("query.graph_build_s", "s");
    ("workload.trace_gen_s", "s");
    ("cql.compile_s", "s");
    ("spe.datagen_s", "s");
    ("spe.profile_s", "s");
    ("analysis.plan_check_s", "s");
    ("core.problem_build_s", "s");
    ("core.rod_place_s", "s");
    ("core.ls_improve_s", "s");
    ("core.ls_moves", "count");
    ("core.ls_passes", "count");
    ("feasible.volume_qmc_s", "s");
    ("deploy.chain_start_s", "s");
    ("deploy.geometry_s", "s");
    ("dynamic.replan_s", "s");
    ("dynamic.replan_accept_frac", "1");
    ("dynamic.replan_moves", "count");
    ("dsim.engine_run_s", "s");
    ("dsim.items", "count");
    ("dsim.events_per_item", "1");
    ("dsim.max_backlog", "count");
    ("spe.dist_run_s", "s");
    ("spe.items", "count");
    ("spe.join_pairs", "count");
    ("spe.reference_s", "s");
    ("bench.check_s", "s");
    ("bench.gc_s", "s");
    ("trace.wall_s", "s");
    ("trace.uncovered_s", "s");
    ("trace.overhead_s", "s");
  ]

let workloads : (module W.S) list =
  [ (module Compliance); (module Monitoring); (module Drift_replan) ]

let trace_dir = "e2ebench-traces"

(* Deploy.finish's phases, called one by one so each gets its own span;
   same samples and order as [Deploy.of_cost_model ~polish:true]. *)
let deploy_phased ~samples ~graph ~caps =
  let report =
    Harness.layer "analysis.plan_check_s" (fun () ->
        Analysis.Plan_check.check_graph graph ~caps)
  in
  Analysis.Plan_check.assert_ok ~what:"deployment" report;
  let problem =
    Harness.layer "core.problem_build_s" (fun () ->
        Rod.Problem.of_graph graph ~caps)
  in
  let placed =
    Harness.layer "core.rod_place_s" (fun () -> Rod.Rod_algorithm.place problem)
  in
  let polished =
    Harness.layer "core.ls_improve_s" (fun () ->
        Rod.Local_search.improve ~samples problem placed)
  in
  let plan = Rod.Plan.make problem polished.Rod.Local_search.assignment in
  let est =
    Harness.layer "feasible.volume_qmc_s" (fun () ->
        Rod.Plan.volume_qmc ~samples plan)
  in
  (polished, est.Feasible.Volume.ratio)

exception Abort of string

let required what = function Some v -> v | None -> raise (Abort what)

module Run (Wl : W.S) = struct
  let deploy env =
    Deploy.of_cost_model ~polish:true ~samples:Wl.deploy_samples
      ~graph:(Wl.graph env) ~caps:(Wl.caps env) ()

  let chain_start env =
    Harness.layer "deploy.chain_start_s" (fun () ->
        Deploy.of_cost_model ~graph:(Wl.graph env) ~caps:(Wl.caps env) ())

  let replans = Wl.drift_chains * Wl.drift_points

  let drift_pass ~seed start =
    Drift.pass ~seed ~chains:Wl.drift_chains ~n_points:Wl.drift_points start

  (* A chain pass counts each of its replans as an operation. *)
  let chain_pass ~seed start =
    Harness.attempted := !Harness.attempted + replans - 1;
    match Harness.attempt "drift chain" (fun () -> drift_pass ~seed start) with
    | Some steps -> Some steps
    | None ->
      Harness.failed := !Harness.failed + replans - 1;
      None

  let series name xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    Printf.printf "%-10s n=%-3d min %.4g  median %.4g  max %.4g\n" name
      (Array.length a) a.(0) (Harness.median xs) a.(Array.length a - 1)

  (* --trace 0: every end-to-end metric, untraced.  Rounds of set-up,
     polished deploy, one drift-chain pass and [engine_runs] engine runs
     repeat until the deadline (at least [min_rounds] times), so every
     metric samples the whole run.  Engine runs cycle through the
     workload's input chunks.

     The machine this was tuned on swung by a third in median speed
     between 20 s windows while the fastest samples of each window
     agreed within 1%.  So each timing is taken as the fastest of the
     repeats of identical work: deploys all repeat one deploy, chain
     passes repeat the same points.  Across distinct work (the steps of
     a pass) the median of those is reported.  Engine throughput is the
     fastest run's: every run works the same graph at the same offered
     load, whichever chunk it replays. *)
  let min_rounds = max 3 ((Wl.chunks + Wl.engine_runs - 1) / Wl.engine_runs)

  let measure ~seed ~seconds =
    let deadline = Harness.now () +. seconds in
    let setups = ref [] and deploys = ref [] and passes = ref [] in
    let first_deploy = ref None and start = ref None in
    let runs = Array.make Wl.chunks [] in
    let engine_round env dep chunk =
      match
        Harness.attempt "engine run" (fun () ->
            Harness.sample (fun () -> Wl.engine env dep ~chunk))
      with
      | None -> ()
      | Some (((run : W.engine_run), _) as timed) ->
        (match runs.(chunk) with
        | [] ->
          Gc.compact ();
          Wl.check_engine env dep ~chunk run
        | ((first : W.engine_run), _) :: _ ->
          Harness.check
            (Wl.name ^ " engine runs on the same input agree")
            (run.W.fingerprint = first.W.fingerprint));
        runs.(chunk) <- runs.(chunk) @ [ timed ]
    in
    let round i =
      match
        Harness.attempt "set-up" (fun () ->
            Harness.sample (fun () -> Wl.setup ~seed))
      with
      | None -> ()
      | Some (env, s) -> (
        setups := s :: !setups;
        match
          Harness.attempt "deploy" (fun () ->
              Harness.sample (fun () -> deploy env))
        with
        | None -> ()
        | Some (dep, s) ->
          deploys := s :: !deploys;
          (match !first_deploy with
          | None -> first_deploy := Some dep
          | Some (first : Deploy.t) ->
            Harness.check "repeated deploys agree"
              (Deploy.assignment dep = Deploy.assignment first
              && dep.Deploy.ratio = first.Deploy.ratio));
          if !start = None then
            start := Harness.attempt "deploy" (fun () -> chain_start env);
          Option.iter
            (fun st ->
              Option.iter
                (fun steps ->
                  Drift.check_pass steps;
                  (match !passes with
                  | first :: _ ->
                    Harness.check "rerun of the drift chain reproduces it"
                      (Drift.same_pass first steps)
                  | [] -> ());
                  passes := !passes @ [ steps ])
                (chain_pass ~seed st))
            !start;
          for k = 0 to Wl.engine_runs - 1 do
            engine_round env dep (((i * Wl.engine_runs) + k) mod Wl.chunks)
          done)
    in
    let rounds = Harness.repeat ~min:min_rounds ~deadline round in
    let dep = required "deploy" !first_deploy in
    let first_pass = required "drift chain" (List.nth_opt !passes 0) in
    let runs =
      Array.to_list
        (Array.map
           (function [] -> raise (Abort "engine run of every chunk") | r -> r)
           runs)
    in
    let fastest xs = List.fold_left Float.min infinity xs in
    (* Per step of the chain, the fastest of its repeats. *)
    let replan_s =
      List.mapi
        (fun k _ ->
          fastest
            (List.map (fun steps -> (List.nth steps k).Drift.seconds) !passes))
        first_pass
    in
    let items_per_s =
      List.concat_map
        (List.map (fun ((run : W.engine_run), s) -> float_of_int run.W.items /. s))
        runs
    in
    (* Each latency percentile is taken per chunk and the mean across
       chunks reported: a chunk's p99 rests on its ten or so slowest
       outputs, and the mean over chunks is steadier between seeds than
       their median or the p99 of all chunks pooled. *)
    let latency p =
      Harness.mean
        (List.map
           (fun chunk_runs ->
             let (run : W.engine_run), _ = List.hd chunk_runs in
             Obs.Samples.percentile run.W.latencies p)
           runs)
    in
    Printf.printf "%d rounds; latency samples per chunk: %s\n"
      (List.length rounds)
      (String.concat " "
         (List.map
            (fun chunk_runs ->
              let (run : W.engine_run), _ = List.hd chunk_runs in
              string_of_int (Obs.Samples.count run.W.latencies))
            runs));
    series "set-up" !setups;
    series "deploy" !deploys;
    series "replan" (List.concat_map (List.map (fun s -> s.Drift.seconds)) !passes);
    series "engine" (List.concat_map (List.map snd) runs);
    [
      ("setup_s", Harness.median !setups);
      ("deploy_s", fastest !deploys);
      ("replan_s", Harness.median replan_s);
      ("engine_items_per_s", List.fold_left Float.max 0. items_per_s);
      ("ratio", dep.Deploy.ratio);
      ("latency_p50_s", latency 50.);
      ("latency_p99_s", latency 99.);
      ("drift_feasible_frac", Drift.feasible_frac first_pass);
      ("peak_rss_mb", Harness.peak_rss_mb ());
    ]

  (* One pass: set-up, polished deploy, one chain pass, one engine run.
     Untraced passes deploy through [Deploy]; traced ones split the
     deploy into its phases, must match the untraced result, and then
     reuse it. *)
  type pass = {
    wall : float;
    deployed : Deploy.t;
    chain : Drift.step list;
    run : W.engine_run;
    ls : Rod.Local_search.outcome option;
  }

  let pass ~seed ~reference =
    let body () =
      let env = Wl.setup ~seed in
      let dep, ls =
        match reference with
        | None -> (deploy env, None)
        | Some (r : pass) ->
          let polished, ratio =
            deploy_phased ~samples:Wl.deploy_samples ~graph:(Wl.graph env)
              ~caps:(Wl.caps env)
          in
          Harness.check "phased deploy reproduces Deploy.of_cost_model"
            (polished.Rod.Local_search.assignment = Deploy.assignment r.deployed
            && ratio = r.deployed.Deploy.ratio);
          (r.deployed, Some polished)
      in
      let start = chain_start env in
      let chain = drift_pass ~seed start in
      Drift.check_pass chain;
      let run = Wl.engine env dep ~chunk:0 in
      Wl.check_engine env dep ~chunk:0 run;
      Option.iter
        (fun r ->
          Harness.check "traced and untraced drift chains agree"
            (Drift.same_pass chain r.chain);
          Harness.check
            (Wl.name ^ " traced and untraced engine runs agree")
            (run.W.fingerprint = r.run.W.fingerprint))
        reference;
      (dep, chain, run, ls)
    in
    let (deployed, chain, run, ls), wall =
      Harness.timed (fun () -> Harness.layer Harness.root_span body)
    in
    Harness.attempted := !Harness.attempted + 4 + replans;
    { wall; deployed; chain; run; ls }

  (* --trace 1: every per-layer metric, from the traced passes. *)
  let traced ~seed ~seconds =
    let deadline = Harness.now () +. seconds in
    let untraced () =
      Harness.tracer := None;
      pass ~seed ~reference:None
    in
    let traced reference =
      let t = Harness.wall_tracer () in
      Harness.tracer := Some t;
      let p = pass ~seed ~reference:(Some reference) in
      Harness.tracer := None;
      (p, Obs.Span.events t)
    in
    let reference = untraced () in
    let rec loop us ts =
      let ts = traced reference :: ts in
      if Harness.now () >= deadline then (us, List.rev ts)
      else loop (untraced () :: us) ts
    in
    let us, ts = loop [ reference ] [] in
    Harness.mkdir_p trace_dir;
    let trace_file =
      Filename.concat trace_dir
        (Printf.sprintf "%s-seed%d.trace.json" Wl.name seed)
    in
    Harness.write_file trace_file (Obs.Export.trace_json (snd (List.hd ts)));
    let selfs =
      List.map
        (fun (_, events) ->
          let self = Harness.self_times events in
          let total = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
          let root =
            List.find
              (fun (e : Obs.Span.event) -> e.name = Harness.root_span)
              events
          in
          let wall = Option.value ~default:nan root.Obs.Span.dur in
          Harness.check "layer self times and the remainder sum to the wall time"
            (Float.abs (total -. wall) <= 1e-6 *. Float.max 1. wall);
          (self, wall))
        ts
    in
    let self_median name =
      Harness.median
        (List.map
           (fun (self, _) ->
             Option.value ~default:0. (Hashtbl.find_opt self name))
           selfs)
    in
    let last = fst (List.nth ts (List.length ts - 1)) in
    let counts =
      last.run.W.counters
      @ [
          ("dynamic.replan_accept_frac", Drift.accept_frac last.chain);
          ("dynamic.replan_moves", float_of_int (Drift.total_moves last.chain));
        ]
      @
      match last.ls with
      | Some o ->
        [
          ("core.ls_moves", float_of_int o.Rod.Local_search.moves);
          ("core.ls_passes", float_of_int o.Rod.Local_search.passes);
        ]
      | None -> []
    in
    let median_wall passes =
      Harness.median (List.map (fun (p : pass) -> p.wall) passes)
    in
    let overhead = median_wall (List.map fst ts) -. median_wall us in
    Printf.printf "trace: %s (%d traced, %d untraced passes)\n" trace_file
      (List.length ts) (List.length us);
    List.map
      (fun (name, _) ->
        let value =
          match name with
          | "trace.wall_s" -> Harness.median (List.map snd selfs)
          | "trace.uncovered_s" -> self_median Harness.root_span
          | "trace.overhead_s" -> overhead
          | _ -> (
            match List.assoc_opt name counts with
            | Some v -> v
            | None -> self_median name)
        in
        (name, value))
      per_layer
end

(* --- output ------------------------------------------------------------ *)

let report ~units metrics =
  List.iter
    (fun (name, unit) ->
      let v = List.assoc name metrics in
      if not (Float.is_finite v) then Harness.fail (name ^ " is not finite");
      Printf.printf "%-28s %-16.9g %s\n" name v unit)
    units;
  Printf.printf "%-28s %-16.9g %s\n" "failed_frac"
    (float_of_int !Harness.failed /. float_of_int (max 1 !Harness.attempted))
    "1";
  let correct = !Harness.problems = [] in
  let json (name, unit) =
    let v = List.assoc name metrics in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite v then v else 0.)
      unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !Harness.attempted) !Harness.failed
    (String.concat ", " (List.map json units));
  if not correct then exit 1

let pin_monitoring path =
  let compiled = Monitoring.compile () in
  let rng = Random.State.make [| 2006 |] in
  let inputs = Monitoring.feeds ~envelope:rng ~rng in
  let sample = Array.map (Monitoring.prefix ~seconds:10.) inputs in
  let profile =
    Spe.Profiler.profile compiled.Cql.Compile.network ~inputs:sample
  in
  Query.Graph_io.save profile.Spe.Profiler.graph ~path;
  Printf.printf "wrote %s\n" path

let usage () =
  prerr_endline
    "usage: rodbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       rodbench --pin-monitoring PATH";
  exit 2

let () =
  let rec opts acc = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] (List.tl (Array.to_list Sys.argv)) in
  let get key = List.assoc_opt key opts in
  match get "--pin-monitoring" with
  | Some path -> pin_monitoring path
  | None -> (
    let int_opt key =
      match Option.bind (get key) int_of_string_opt with
      | Some v -> v
      | None -> usage ()
    in
    let name = Option.value ~default:"" (get "--workload") in
    let seed = int_opt "--seed" in
    let seconds = float_of_int (int_opt "--seconds") in
    let trace = int_opt "--trace" = 1 in
    match List.find_opt (fun (module Wl : W.S) -> Wl.name = name) workloads with
    | None ->
      prerr_endline ("unknown workload " ^ name);
      exit 2
    | Some (module Wl) -> (
      let module R = Run (Wl) in
      Printf.printf "workload %s, seed %d, %.0f s, trace %b\n%!" name seed
        seconds trace;
      match
        if trace then (per_layer, R.traced ~seed ~seconds)
        else (end_to_end, R.measure ~seed ~seconds)
      with
      | units, metrics -> report ~units metrics
      | exception Abort what ->
        prerr_endline ("aborted: no successful " ^ what);
        exit 1
      | exception e ->
        prerr_endline ("aborted: " ^ Printexc.to_string e);
        exit 1))
