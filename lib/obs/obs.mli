(** [rod.obs] — the unified observability layer: a metrics registry
    (counters, gauges, fixed-bucket histograms), a span tracer, and
    deterministic exporters (JSON, Prometheus text, Chrome trace_event
    JSON), all driven by an injectable {!Clock}.

    The module-level helpers operate on one process-wide registry and
    tracer sharing a deterministic ticker clock, so telemetry from the
    placement algorithm, the simulator and the SPE lands on a common
    timeline and two runs with the same seed export byte-identical
    artifacts.  Tests needing isolation build their own
    {!Registry.create}/{!Span.create}/{!Clock} values. *)

module Counter = Metric.Counter
module Gauge = Metric.Gauge
module Histogram = Metric.Histogram
module Registry = Metric.Registry
module Clock = Clock
module Samples = Samples
module Metric = Metric
module Span = Span
module Export = Export

val registry : unit -> Registry.t
(** The process-wide registry. *)

val tracer : unit -> Span.t
(** The process-wide tracer. *)

val clock : unit -> Clock.t
(** The clock shared by the process-wide registry and tracer (a
    deterministic ticker by default). *)

val set_clock : Clock.t -> unit
(** Swap the shared clock, e.g. for an {!Clock.of_fun} wall clock. *)

val reset : unit -> unit
(** Zero all metrics, clear the trace, rewind the clock — registrations
    survive.  Call between runs that must export identically. *)

val counter :
  ?labels:(string * string) list -> ?help:string -> string -> Counter.t

val gauge : ?labels:(string * string) list -> ?help:string -> string -> Gauge.t

val histogram :
  ?buckets:float array ->
  ?labels:(string * string) list ->
  ?help:string ->
  string ->
  Histogram.t
(** Get-or-create on the process-wide registry; see {!Registry}. *)

val snapshot : unit -> Metric.sample list
(** Frozen samples of the process-wide registry, sorted by name then
    labels. *)

val events : unit -> Span.event list
(** The process-wide trace, stably sorted by timestamp. *)

val with_span :
  ?track:int ->
  ?cat:string ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a

val emit :
  ?track:int ->
  ?cat:string ->
  ?args:(string * string) list ->
  ts:float ->
  dur:float ->
  string ->
  unit

val instant :
  ?track:int ->
  ?cat:string ->
  ?args:(string * string) list ->
  ?ts:float ->
  string ->
  unit
