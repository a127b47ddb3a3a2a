(* rodlint: deterministic *)

type 'a t = {
  items : 'a array array;
  times : float array array;
  cursor : int array;
  (* [heads.(k)] is [times.(k).(cursor.(k))] while stream k lasts. *)
  heads : float array;
  (* Lowest unexhausted stream holding the least head; [-1] when none. *)
  mutable next : int;
}

let sorted_stream ~ts ~until items =
  let kept = Array.of_list (List.filter (fun x -> ts x <= until) items) in
  let n = Array.length kept in
  let rec sorted i =
    i >= n || (ts kept.(i - 1) <= ts kept.(i) && sorted (i + 1))
  in
  if not (sorted 1) then
    Array.stable_sort (fun x y -> Float.compare (ts x) (ts y)) kept;
  kept

(* Strict [<] keeps the lowest stream index on ties.  Exhaustion is
   read from the cursors, not from the heads, so an item stamped
   [infinity] (kept when [until] is) still takes its turn. *)
let select m =
  let best = ref (-1) in
  for k = 0 to Array.length m.heads - 1 do
    if m.cursor.(k) < Array.length m.times.(k)
       && (!best < 0 || m.heads.(k) < m.heads.(!best))
    then best := k
  done;
  m.next <- !best

let create ~ts ~until streams =
  let items = Array.map (sorted_stream ~ts ~until) streams in
  let times = Array.map (Array.map ts) items in
  let heads =
    Array.map (fun t -> if Array.length t > 0 then t.(0) else infinity) times
  in
  let cursor = Array.make (Array.length times) 0 in
  let m = { items; times; cursor; heads; next = -1 } in
  select m;
  m

let times m = m.times

let is_empty m = m.next < 0

let head_time m = if m.next < 0 then infinity else m.heads.(m.next)

let precedes m time = m.next >= 0 && m.heads.(m.next) <= time

let head_stream m = m.next

let head m =
  if m.next < 0 then invalid_arg "Source_merge.head: exhausted";
  m.items.(m.next).(m.cursor.(m.next))

let advance m =
  let k = m.next in
  if k >= 0 then begin
    let c = m.cursor.(k) + 1 in
    let times = m.times.(k) in
    m.cursor.(k) <- c;
    if c < Array.length times then m.heads.(k) <- times.(c);
    select m
  end
