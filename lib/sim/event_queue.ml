type 'a entry = {
  time : float;
  seq : int;
  payload : 'a;
}

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && before q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.size && before q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let grow q =
  let capacity = Array.length q.heap in
  let fresh = max 16 (2 * capacity) in
  if capacity < fresh then begin
    let bigger = Array.make fresh q.heap.(0) in
    Array.blit q.heap 0 bigger 0 q.size;
    q.heap <- bigger
  end

let push q ~time payload =
  let entry = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.size = 0 then begin
    (* Refill from empty: the drained array is reused, so a queue that
       empties and fills again allocates only its entries. *)
    if Array.length q.heap = 0 then q.heap <- Array.make 16 entry
    else q.heap.(0) <- entry;
    q.size <- 1
  end
  else begin
    if q.size = Array.length q.heap then grow q;
    q.heap.(q.size) <- entry;
    q.size <- q.size + 1;
    sift_up q (q.size - 1)
  end

let pop q =
  if q.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  top.payload

let min_time q = if q.size = 0 then infinity else q.heap.(0).time
