(* Equivalence suite for the fused read-only local-search rewrite.

   Two obligations: (1) the new sweeps must reproduce the historical
   mutate-and-undo driver (ls_reference.ml) bit for bit — assignment,
   ratio, move and pass counts — at pool sizes 1/2/4, including
   degenerate shapes; (2) the read-only primitives (gain, swap_gain,
   best_relocation, relocation_positive_bound) must agree with the
   feasibility delta that actually performing the move reports, and
   with their full-scan oracles, on random problems. *)

module Pool = Parallel.Pool
module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Problem = Rod.Problem
module LS = Rod.Local_search

let with_pool ways f =
  let pool = Pool.create ways in
  Fun.protect
    ~finally:(fun () -> if ways > 1 then Pool.shutdown pool)
    (fun () -> f pool)

let fixture ?(seed = 4242) ~m ~d ~n_nodes ~cap () =
  let rng = Random.State.make [| seed |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:(m / d)
  in
  Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:n_nodes ~cap)

let check_equal name reference outcome =
  Alcotest.(check (array int))
    (name ^ " assignment") reference.LS.assignment outcome.LS.assignment;
  Alcotest.check (Alcotest.float 0.) (name ^ " ratio") reference.LS.ratio
    outcome.LS.ratio;
  Alcotest.(check int) (name ^ " moves") reference.LS.moves outcome.LS.moves;
  Alcotest.(check int) (name ^ " passes") reference.LS.passes outcome.LS.passes

let equiv ~name ?(samples = 512) ?max_passes problem start =
  List.iter
    (fun ways ->
      with_pool ways (fun pool ->
          let reference =
            Ls_reference.improve ~pool ~samples ?max_passes problem start
          in
          let outcome = LS.improve ~pool ~samples ?max_passes problem start in
          check_equal (Printf.sprintf "%s ways=%d" name ways) reference outcome))
    [ 1; 2; 4 ]

(* A pile-up start (everything on node 0) drives long relocation runs;
   the alternating start leaves work for the swap sweep too. *)
let test_equiv_random_starts () =
  let problem = fixture ~m:24 ~d:3 ~n_nodes:4 ~cap:1. () in
  equiv ~name:"pile-up" problem (Array.make 24 0);
  equiv ~name:"alternating" problem (Array.init 24 (fun j -> j mod 2))

let test_equiv_rod_start () =
  let problem = fixture ~m:30 ~d:3 ~n_nodes:5 ~cap:1. () in
  equiv ~name:"rod-start" problem (Rod.Rod_algorithm.place problem)

let test_equiv_degenerate () =
  (* Single operator. *)
  let p1 = fixture ~m:1 ~d:1 ~n_nodes:2 ~cap:1. () in
  equiv ~name:"m=1" ~samples:128 p1 [| 0 |];
  (* Single node: no relocation candidate, no swappable pair. *)
  let p2 = fixture ~m:8 ~d:2 ~n_nodes:1 ~cap:1. () in
  equiv ~name:"n=1" ~samples:128 p2 (Array.make 8 0);
  (* Single sample. *)
  let p3 = fixture ~m:12 ~d:2 ~n_nodes:3 ~cap:1. () in
  equiv ~name:"samples=1" ~samples:1 p3 (Array.make 12 0);
  (* Capacities so tight every sample violates everywhere: nothing can
     ever gain, so the skip index must reach the same quiet single pass
     as grinding through the mutate-and-undo evaluation. *)
  let p4 = fixture ~m:12 ~d:2 ~n_nodes:3 ~cap:1e-9 () in
  equiv ~name:"all-infeasible" ~samples:128 p4 (Array.make 12 0);
  (* Pass cap of 1 stops mid-climb; both paths must stop at the same
     intermediate state. *)
  let p5 = fixture ~m:24 ~d:3 ~n_nodes:4 ~cap:1. () in
  equiv ~name:"max_passes=1" ~max_passes:1 p5 (Array.make 24 0)

(* --- property checks of the read-only primitives ------------------- *)

(* Random dense problems plus a random starting assignment.  Loads are
   strictly positive (no all-zero column) and capacities strictly
   positive, per the Problem.t invariants the skip index relies on. *)
let instance_gen =
  QCheck.Gen.(
    let* m = 2 -- 8 in
    let* d = 1 -- 3 in
    let* n = 2 -- 4 in
    let* entries = array_size (return (m * d)) (float_range 0.05 1.) in
    let* caps = array_size (return n) (float_range 0.2 2.) in
    let* assignment = array_size (return m) (0 -- (n - 1)) in
    let lo = Array.init m (fun j -> Array.sub entries (j * d) d) in
    return (lo, caps, assignment))

let print_instance (lo, caps, assignment) =
  Format.asprintf "lo = %a caps = %a assignment = %s" Mat.pp
    (Mat.of_arrays lo) Vec.pp caps
    (String.concat ";" (Array.to_list (Array.map string_of_int assignment)))

let arbitrary_instance = QCheck.make ~print:print_instance instance_gen

let samples = 64

(* gain j ~to_node must equal feasible-after-move minus feasible-before
   — measured by really moving (and moving back before the next probe;
   any float drift the undo leaves behind is part of the state both
   sides then read, so the comparison stays exact). *)
let prop_gain_matches_move =
  QCheck.Test.make ~name:"gain = feasible delta of the move" ~count:60
    arbitrary_instance (fun (lo, caps, assignment) ->
      let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
      let m = Problem.n_ops problem and n = Problem.n_nodes problem in
      List.for_all
        (fun ways ->
          with_pool ways (fun pool ->
              let scorer = LS.make_scorer ~pool problem assignment samples in
              let ok = ref true in
              for j = 0 to m - 1 do
                let home = assignment.(j) in
                for i = 0 to n - 1 do
                  if i <> home then begin
                    let predicted = LS.gain scorer j ~to_node:i in
                    let before = LS.feasible scorer in
                    LS.move scorer j ~from_node:home ~to_node:i;
                    let actual = LS.feasible scorer - before in
                    LS.move scorer j ~from_node:i ~to_node:home;
                    if predicted <> actual then ok := false
                  end
                done
              done;
              !ok))
        [ 1; 4 ])

let prop_swap_gain_matches_moves =
  QCheck.Test.make ~name:"swap_gain = feasible delta of the exchange"
    ~count:60 arbitrary_instance (fun (lo, caps, assignment) ->
      let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
      let m = Problem.n_ops problem in
      with_pool 1 (fun pool ->
          let scorer = LS.make_scorer ~pool problem assignment samples in
          let ok = ref true in
          for j1 = 0 to m - 1 do
            for j2 = j1 + 1 to m - 1 do
              let a = assignment.(j1) and b = assignment.(j2) in
              if a <> b then begin
                let predicted = LS.swap_gain scorer j1 j2 in
                let before = LS.feasible scorer in
                LS.move scorer j1 ~from_node:a ~to_node:b;
                LS.move scorer j2 ~from_node:b ~to_node:a;
                let actual = LS.feasible scorer - before in
                LS.move scorer j1 ~from_node:b ~to_node:a;
                LS.move scorer j2 ~from_node:a ~to_node:b;
                if predicted <> actual then ok := false
              end
            done
          done;
          !ok))

(* Random problems with more nodes (so targets tie and orderings
   matter), plus a random sequence of moves applied before the checks:
   the saturated-node index must follow the moves. *)
let moved_gen =
  QCheck.Gen.(
    let* m = 2 -- 10 in
    let* d = 1 -- 3 in
    let* n = 2 -- 8 in
    let* entries = array_size (return (m * d)) (float_range 0.05 1.) in
    let* caps = array_size (return n) (float_range 0.2 2.) in
    let* assignment = array_size (return m) (0 -- (n - 1)) in
    let* moves = list_size (0 -- 12) (pair (0 -- (m - 1)) (0 -- (n - 1))) in
    let lo = Array.init m (fun j -> Array.sub entries (j * d) d) in
    return ((lo, caps, assignment), moves))

let arbitrary_moved =
  QCheck.make
    ~print:(fun (inst, moves) ->
      print_instance inst ^ " moves = "
      ^ String.concat ";"
          (List.map (fun (j, i) -> Printf.sprintf "%d->%d" j i) moves))
    moved_gen

(* Build a scorer at [ways], replay the moves on it, then check [ok]
   on every operator. *)
let after_moves ((lo, caps, assignment), moves) ok =
  let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
  List.for_all
    (fun ways ->
      with_pool ways (fun pool ->
          let assignment = Array.copy assignment in
          let scorer = LS.make_scorer ~pool problem assignment samples in
          List.iter
            (fun (j, i) ->
              if i <> assignment.(j) then begin
                LS.move scorer j ~from_node:assignment.(j) ~to_node:i;
                assignment.(j) <- i
              end)
            moves;
          let all = ref true in
          for j = 0 to Problem.n_ops problem - 1 do
            if not (ok problem scorer assignment j) then all := false
          done;
          !all))
    [ 1; 4 ]

(* The lowest-index argmax of the positive gains, by a scan of the
   scalar primitive: (gain, target), or (0, -1) when none is positive. *)
let scan_best problem scorer j =
  let best = ref 0 and target = ref (-1) in
  for i = 0 to Problem.n_nodes problem - 1 do
    let g = LS.gain scorer j ~to_node:i in
    if g > !best then begin
      best := g;
      target := i
    end
  done;
  (!best, !target)

let prop_best_relocation_argmax =
  QCheck.Test.make
    ~name:"best_relocation = lowest-index argmax of gain (1/4)" ~count:100
    arbitrary_moved (fun inst ->
      after_moves inst (fun problem scorer _ j ->
          let g = LS.best_relocation scorer j in
          (g, LS.best_target scorer) = scan_best problem scorer j))

(* The bound covers every target's gain, and a zero bound leaves no
   gaining target.  (A nonzero bound can still leave none: a target
   that wins a sample may break feasible ones.) *)
let prop_bound_covers_gains =
  QCheck.Test.make ~name:"relocation_positive_bound >= every gain (1/4)"
    ~count:100 arbitrary_moved (fun inst ->
      after_moves inst (fun problem scorer _ j ->
          let bound = LS.relocation_positive_bound scorer j in
          let covered = ref true in
          for i = 0 to Problem.n_nodes problem - 1 do
            if LS.gain scorer j ~to_node:i > bound then covered := false
          done;
          !covered && (bound > 0 || fst (scan_best problem scorer j) = 0)))

let prop_bound_matches_full_scan =
  QCheck.Test.make
    ~name:"relocation_positive_bound = full-sample count (1/4)" ~count:100
    arbitrary_moved (fun inst ->
      after_moves inst (fun problem scorer assignment j ->
          LS.relocation_positive_bound scorer j
          = Ls_reference.relocation_positive_bound problem scorer ~assignment j))

(* The margin repair with the cached top utilizations proposes the same
   moves as the quadratic reference, from the same state. *)
let repair_gen =
  QCheck.Gen.(
    let* m = 2 -- 12 in
    let* d = 1 -- 3 in
    let* n = 2 -- 7 in
    let* entries = array_size (return (m * d)) (float_range 0.05 1.) in
    let* caps = array_size (return n) (float_range 0.2 2.) in
    let* assignment = array_size (return m) (0 -- (n - 1)) in
    let* rates = array_size (return d) (float_range 0. 3.) in
    let* budget = 0 -- 5 in
    let lo = Array.init m (fun j -> Array.sub entries (j * d) d) in
    return ((lo, caps, assignment), rates, budget))

let prop_repair_matches_reference =
  QCheck.Test.make ~name:"repair_margin moves = quadratic reference"
    ~count:200
    (QCheck.make
       ~print:(fun (inst, rates, budget) ->
         Format.asprintf "%s rates = %a budget = %d" (print_instance inst)
           Vec.pp rates budget)
       repair_gen)
    (fun ((lo, caps, assignment), rates, budget) ->
      let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
      let cost_of j = 0.5 *. float_of_int j in
      let run repair =
        let working = Array.copy assignment in
        let scorer = LS.make_scorer problem working samples in
        let result = repair problem scorer ~assignment:working ~rates ~cost_of budget in
        (result, working)
      in
      run Dynamic.Replanner.repair_margin = run Ls_reference.repair_margin)

(* make_scorer fills a node's load on a sample as one dot of the node's
   load vector with the QMC point.  Recount the feasible samples
   independently from [Plan.node_loads], [Vec.dot] and the strict
   [> cap] test, on the same Halton points mapped into the ideal
   simplex: the arithmetic is the same, so the counts are equal
   exactly. *)
let recount_feasible problem assignment samples =
  let ln = Rod.Plan.node_loads (Rod.Plan.make problem assignment) in
  let caps = problem.Problem.caps in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let d = Problem.dim problem in
  let cube = Array.make d 0. and point = Array.make d 0. in
  let count = ref 0 in
  for s = 0 to samples - 1 do
    Feasible.Halton.point_into cube s;
    Feasible.Simplex.sample_ideal_into ~l ~c_total ~cube_point:cube
      ~scratch:cube point;
    let violated = ref false in
    Array.iteri
      (fun i cap -> if Vec.dot (Mat.row ln i) point > cap then violated := true)
      caps;
    if not !violated then incr count
  done;
  !count

let prop_scorer_matches_recount =
  QCheck.Test.make ~name:"make_scorer feasible = node-load recount (1/2/4)"
    ~count:60 arbitrary_instance (fun (lo, caps, assignment) ->
      let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
      let expected = recount_feasible problem assignment samples in
      List.for_all
        (fun ways ->
          with_pool ways (fun pool ->
              LS.feasible (LS.make_scorer ~pool problem assignment samples)
              = expected))
        [ 1; 2; 4 ])

let test_samples_positive () =
  let problem = fixture ~m:12 ~d:2 ~n_nodes:3 ~cap:1. () in
  let start = Array.make 12 0 in
  let expected =
    Invalid_argument "Local_search.make_scorer: samples must be positive"
  in
  Alcotest.check_raises "improve ~samples:0" expected (fun () ->
      ignore (LS.improve ~samples:0 problem start));
  Alcotest.check_raises "make_scorer -3" expected (fun () ->
      ignore (LS.make_scorer problem start (-3)))

(* --- mid-size golden, recorded before the scorer dropped its
   per-operator contribution table ------------------------------------

   The equivalence checks above compare two drivers on one shared
   scorer, so a change in the contribution values themselves would pass
   them.  This golden pins absolute outcomes on a 2,000-operator,
   64-node instance at 2,048 samples: the polish, and a 3-point budgeted
   replan chain whose last point lies past the headroom, so the margin
   repair runs, its attempt is rejected and the volume-only retry is the
   one accepted. *)

let digest a =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map string_of_int a))))

let golden_problem () =
  let rng = Random.State.make [| 7 |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:4 ~ops_per_tree:500
  in
  ( graph,
    Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:64 ~cap:1.) )

let golden_improve =
  "aece542860182c53b058ca87286d9e71 moves=46 passes=5 ratio=0x1.e54p-1"

(* (heavy stream, share of the headroom along its direction) per step. *)
let golden_chain_points = [ (0, 0.9); (2, 0.85); (1, 1.02) ]

let golden_chain =
  [
    "b1281e58a03b5b978687daa69339d914 moves=3 before=0x1.c34p-1 \
     after=0x1.d8cp-1 accepted=true";
    "416e4187f1722b26d15bec90e5d3b885 moves=3 before=0x1.d8cp-1 \
     after=0x1.dep-1 accepted=true";
    "653dc12bc825a01cb19465bcded66560 moves=3 before=0x1.dep-1 \
     after=0x1.e1p-1 accepted=true";
  ]

let test_golden_midsize () =
  let graph, problem = golden_problem () in
  let start = Rod.Rod_algorithm.place problem in
  let cost_of = Dynamic.Statesize.graph_cost graph in
  List.iter
    (fun ways ->
      with_pool ways (fun pool ->
          let o = LS.improve ~pool ~samples:2048 problem start in
          Alcotest.(check string)
            (Printf.sprintf "improve ways=%d" ways)
            golden_improve
            (Printf.sprintf "%s moves=%d passes=%d ratio=%h"
               (digest o.LS.assignment) o.LS.moves o.LS.passes o.LS.ratio);
          let assignment = ref start in
          let steps =
            List.map
              (fun (heavy, share) ->
                let direction =
                  Vec.init 4 (fun k -> if k = heavy then 3. else 1.)
                in
                let h =
                  (Dynamic.Margin.of_assignment problem ~assignment:!assignment
                     ~rates:direction)
                    .Dynamic.Margin.headroom
                in
                let r =
                  Dynamic.Replanner.replan ~pool ~samples:2048 ~budget:3
                    ~cost_of
                    ~rates:(Vec.scale (share *. h) direction)
                    problem ~assignment:!assignment
                in
                let next = Array.copy !assignment in
                List.iter
                  (fun (mv : Dynamic.Replanner.move) ->
                    next.(mv.Dynamic.Replanner.op) <- mv.Dynamic.Replanner.to_node)
                  r.Dynamic.Replanner.moves;
                assignment := next;
                Printf.sprintf "%s moves=%d before=%h after=%h accepted=%b"
                  (digest next)
                  (List.length r.Dynamic.Replanner.moves)
                  r.Dynamic.Replanner.ratio_before
                  r.Dynamic.Replanner.ratio_after r.Dynamic.Replanner.accepted)
              golden_chain_points
          in
          Alcotest.(check (list string))
            (Printf.sprintf "replan chain ways=%d" ways)
            golden_chain steps))
    [ 1; 2; 4 ]

(* The scorer's footprint is O(n * samples + samples * d): building one
   for ten times the operators, at the same nodes, dimension and sample
   count, allocates no more words.  The slack of one sample row absorbs
   allocator bookkeeping; a per-operator table would add 540 rows. *)
let test_scorer_alloc_flat_in_m () =
  let samples = 1024 in
  let words ~ops_per_tree =
    let rng = Random.State.make [| 11 |] in
    let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:3 ~ops_per_tree in
    let problem =
      Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:8 ~cap:1.)
    in
    let assignment = Rod.Rod_algorithm.place problem in
    with_pool 1 (fun pool ->
        let minor0, promoted0, major0 = Gc.counters () in
        ignore (LS.make_scorer ~pool problem assignment samples);
        let minor1, promoted1, major1 = Gc.counters () in
        minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  in
  (* The first build also pays one-time lazy initialization. *)
  ignore (words ~ops_per_tree:20);
  let small = words ~ops_per_tree:20 in
  let large = words ~ops_per_tree:200 in
  if large -. small > float_of_int samples then
    Alcotest.failf "make_scorer allocated %.0f words at m=600 vs %.0f at m=60"
      large small

let suite =
  [
    Alcotest.test_case "old = new: random starts (1/2/4)" `Quick
      test_equiv_random_starts;
    Alcotest.test_case "old = new: ROD start (1/2/4)" `Quick
      test_equiv_rod_start;
    Alcotest.test_case "old = new: degenerate shapes (1/2/4)" `Quick
      test_equiv_degenerate;
    Alcotest.test_case "mid-size golden: improve + replan chain (1/2/4)"
      `Quick test_golden_midsize;
    Alcotest.test_case "make_scorer allocation flat in m" `Quick
      test_scorer_alloc_flat_in_m;
    Alcotest.test_case "sample count must be positive" `Quick
      test_samples_positive;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_gain_matches_move;
        prop_swap_gain_matches_moves;
        prop_best_relocation_argmax;
        prop_bound_covers_gains;
        prop_bound_matches_full_scan;
        prop_repair_matches_reference;
        prop_scorer_matches_recount;
      ]
