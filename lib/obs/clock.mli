(** The injectable time source behind all telemetry.

    Every timestamp in the observability layer comes from a clock value
    chosen by the caller, never from the system clock, so metrics and
    traces are deterministic under a fixed seed.  Three flavours:

    - {!manual}: stands still until {!set} moves it (simulation virtual
      time — the engine stamps events with their own times anyway, but a
      manual clock lets nested spans read the current virtual time);
    - {!ticker}: advances by a fixed [dt] on every read, so spans get
      deterministic nonzero widths without any real time passing (the
      default for the process-wide registry and tracer);
    - {!of_fun}: delegates to an external function — the escape hatch
      for genuine wall time, which no library module reads (benchmark
      harnesses pass their own). *)

type t

val manual : ?at:float -> unit -> t
(** A clock frozen at [at] (default 0.) until {!set} is called. *)

val ticker : ?at:float -> ?dt:float -> unit -> t
(** Starts at [at] (default 0.) and advances by [dt] (default 1e-6
    seconds) after every {!now} read. *)

val of_fun : (unit -> float) -> t
(** Reads delegate to the function; {!set} raises and {!reset} is a
    no-op. *)

val now : t -> float
(** Current time in seconds (advances a ticker). *)

val peek : t -> float
(** Current time without advancing. *)

val set : t -> float -> unit
(** Move a manual or ticker clock to an absolute time.  Raises
    [Invalid_argument] on an external clock. *)

val reset : t -> unit
(** Return a manual or ticker clock to its creation time. *)
