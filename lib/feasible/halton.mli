(** Halton low-discrepancy sequences for quasi-Monte Carlo integration
    (the paper computes simulator feasible-set sizes with QMC, §7.1). *)

val max_dim : int
(** The largest supported dimension, 20: one prime base per coordinate.
    {!point} and {!point_into} reject a wider point with
    [Invalid_argument]. *)

val radical_inverse : base:int -> int -> float
(** [radical_inverse ~base i] reflects the base-[base] digits of [i]
    about the radix point; [i >= 0], [base >= 2]. *)

val point : dim:int -> int -> float array
(** [point ~dim i] is the [i]-th Halton point in [[0,1)^dim], using the
    first [dim] primes as bases.  [1 <= dim <= max_dim].  Indexing starts the
    sequence at [i + 1] to skip the all-zeros point. *)

val point_into : float array -> int -> unit
(** [point_into dst i] writes [point ~dim:(Array.length dst) i] into
    [dst] — the allocation-free form the volume estimator's inner loop
    uses (points are index-addressed, so a reused buffer changes no
    result). *)

val sequence : dim:int -> n:int -> float array array
(** The first [n] points. *)
