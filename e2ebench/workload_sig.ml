(* What a workload provides.  The driver in rodbench.ml deploys its
   graph, runs the drift chain on it and times its engine; a workload
   only builds its inputs, runs its engine and checks the engine's
   outputs. *)

type engine_run = {
  items : int;  (** Operator work items completed. *)
  latencies : Obs.Samples.t;  (** Sink latency, simulated seconds. *)
  fingerprint : string;
      (** Identical for every run on the same inputs and placement. *)
  counters : (string * float) list;  (** Per-layer counts of this run. *)
}

module type S = sig
  val name : string

  type env

  val setup : seed:int -> env
  (** Build the graph (or compile the query), generate the inputs and,
      where the workload has one, profile. *)

  val graph : env -> Query.Graph.t

  val caps : env -> Linalg.Vec.t

  val deploy_samples : int
  (** QMC samples of the polish and the volume estimate. *)

  val drift_chains : int
  (** Independent drift chains per pass, each from the chain start. *)

  val drift_points : int
  (** Rate points per drift chain. *)

  val chunks : int
  (** Independent engine inputs the set-up generates; successive engine
      runs cycle through them, and each latency percentile is the mean
      over chunks of that chunk's percentile. *)

  val engine_runs : int
  (** Engine runs per round. *)

  val engine : env -> Deploy.t -> chunk:int -> engine_run
  (** One engine run of the deployment on a pre-generated input. *)

  val check_engine : env -> Deploy.t -> chunk:int -> engine_run -> unit
  (** Workload-specific output checks of a chunk's run, reported
      through [Harness.check]. *)
end

let events_total () =
  List.fold_left
    (fun acc (s : Obs.Metric.sample) ->
      match s.s_value with
      | Obs.Metric.Counter_v v when s.s_name = "rod_sim_events_total" -> acc + v
      | _ -> acc)
    0 (Obs.snapshot ())
