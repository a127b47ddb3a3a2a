(** A binary-heap priority queue of timestamped events.

    Events with equal timestamps are dequeued in insertion order
    (a monotone sequence number breaks ties), which keeps simulation
    runs fully deterministic.

    The {!Kernel} keeps only run-time events here (service completions,
    hops, ticks, faults, migration steps); source arrivals wait in a
    {!Source_merge} and are interleaved by comparing its head time with
    {!min_time}.  The backing array grows by doubling and is kept when
    the queue drains, so a queue that empties and fills again allocates
    only its entries. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> 'a
(** Remove the earliest event and return its payload; read its time
    with {!min_time} first.  Allocates nothing.
    @raise Invalid_argument when empty. *)

val min_time : 'a t -> float
(** Time of the earliest event, or [infinity] when empty: a plain float,
    so an event loop can compare it without an option per step. *)
