(* rodscan-expect: race/captured-ref race/captured-array race/captured-field *)

(* Every way a pool closure can mutate captured state: := and incr on a
   captured ref, a write to a captured array at an index no chunk owns,
   and a mutable-field write on a captured record. *)

let sum_bad pool data n =
  let total = ref 0. in
  Parallel.Pool.parallel_for pool ~n (fun lo hi ->
      for s = lo to hi - 1 do
        total := !total +. data.(s)
      done);
  !total

let count_bad pool n =
  let hits = ref 0 in
  Parallel.Pool.parallel_for pool ~n (fun lo hi ->
      for _ = lo to hi - 1 do
        incr hits
      done);
  !hits

let scatter_bad pool out n =
  Parallel.Pool.parallel_for pool ~n (fun _lo _hi -> out.(0) <- 1.0)

type cell = { mutable value : float }

let field_bad pool acc n =
  Parallel.Pool.parallel_for pool ~n (fun _lo _hi -> acc.value <- 1.0)
