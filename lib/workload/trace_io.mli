(** Trace files: a one-line header with the sampling interval followed
    by one rate per line — trivially loadable into plotting tools and
    round-trippable, so synthesized workloads can be pinned down and
    reused across runs.

    {v
    # rodtrace dt=0.5
    12.5
    13.75
    ...
    v} *)

val to_string : Trace.t -> string

val of_string : string -> (Trace.t, string) result
(** Total: malformed input is an [Error] naming its 1-based line — a
    missing header, a dt that is not finite and positive, a rate that
    is not finite and non-negative, or no rates at all.  Blank lines
    and [#] comments after the header are skipped. *)

val save : Trace.t -> path:string -> unit

val load : path:string -> (Trace.t, string) result
(** {!of_string} of a file's contents; an unreadable file is an
    [Error] too.  Messages are prefixed by [path]. *)
