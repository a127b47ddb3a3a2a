(** Source arrivals of a run, merged lazily across input streams.

    The {!Kernel} under both executors reads source tuples from a
    merge instead of pushing every one into the {!Event_queue} before
    the first event: each stream's items with
    timestamp [<= until] are stably sorted into an array, and the merge
    walks the arrays with one cursor each.  The event loop delivers the
    next arrival while it {!precedes} the heap's
    {!Event_queue.min_time}, and pops the heap otherwise, so the heap
    holds only the events pushed during the run.

    {b Order contract} — the order a heap preloaded with every source
    arrival (before any other event) would give:
    - within a stream, by timestamp, ties in list order;
    - across streams at equal timestamps, the lower stream index first;
    - an arrival before any heap event with the same timestamp. *)

type 'a t

val create : ts:('a -> float) -> until:float -> 'a list array -> 'a t
(** [create ~ts ~until streams] keeps each stream's items with
    [ts x <= until] (so NaN timestamps are dropped), stably sorted by
    [ts].  An already sorted stream is only copied. *)

val times : 'a t -> float array array
(** Per-stream sorted timestamps of the kept items, indexed like the
    [streams] argument.  Shared with the merge: do not mutate. *)

val is_empty : 'a t -> bool
(** Every stream exhausted. *)

val head_time : 'a t -> float
(** Timestamp of the next arrival, or [infinity] once the merge is
    empty.  Cached: O(1), no allocation. *)

val precedes : 'a t -> float -> bool
(** [precedes m time]: the merge is not empty and its next arrival goes
    before a heap event at [time] (its timestamp is [<= time]; a source
    arrival wins every tie). *)

val head_stream : 'a t -> int
(** Stream index of the next arrival; [-1] once the merge is empty. *)

val head : 'a t -> 'a
(** The next arrival.  @raise Invalid_argument once the merge is empty. *)

val advance : 'a t -> unit
(** Step past the next arrival (no-op once empty): O(number of
    streams). *)
