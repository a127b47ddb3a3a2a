(* Conforming: the sanctioned pool idioms — chunk-indexed writes,
   map_reduce combining per-chunk accumulators, and closure-local
   scratch state. *)

let fill pool out n =
  Parallel.Pool.parallel_for pool ~n (fun lo hi ->
      for s = lo to hi - 1 do
        out.(s) <- float_of_int s
      done)

let sum pool data n =
  Parallel.Pool.map_reduce pool ~n
    ~map:(fun lo hi ->
      let acc = ref 0. in
      for s = lo to hi - 1 do
        acc := !acc +. data.(s)
      done;
      !acc)
    ~combine:( +. ) ~init:0.

let local_state pool n =
  Parallel.Pool.parallel_for pool ~n (fun lo hi ->
      let scratch = Array.make 4 0. in
      for s = lo to hi - 1 do
        scratch.(s mod 4) <- float_of_int s
      done)
