(* Wall-clock timing, run budgets, failure accounting and the layer
   tracer shared by every workload.

   Every timing here reads the real clock: the benchmark measures the
   library from outside, so the process-wide [Obs] ticker stays
   deterministic for everything that runs inside the library. *)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

(* The benchmark owns its tracer: a span tracer on the wall clock, used
   only during traced passes.  [layer name f] times one public call into
   a library layer; outside a traced pass it is just [f ()]. *)
let tracer : Obs.Span.t option ref = ref None

let layer name f =
  match !tracer with
  | None -> f ()
  | Some t -> Obs.Span.with_span t ~cat:"layer" name f

(* A tracer whose clock reads seconds since its creation, so exported
   microsecond timestamps keep their resolution. *)
let wall_tracer () =
  let t0 = now () in
  Obs.Span.create ~clock:(Obs.Clock.of_fun (fun () -> now () -. t0)) ()

(* One timed sample, started from a compacted heap so the garbage left
   by earlier samples is not collected on this sample's clock. *)
let sample f =
  layer "bench.gc_s" Gc.compact;
  timed f

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Peak resident set of this process ([VmHWM]), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf
        (String.sub line 6 (String.length line - 6))
        " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* [repeat ~min ~deadline f] calls [f 0], [f 1], ... at least [min]
   times and then for as long as the wall clock is before [deadline];
   returns the results in call order. *)
let repeat ~min ~deadline f =
  let rec go i acc =
    if i >= min && now () >= deadline then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* --- failures --------------------------------------------------------- *)

(* Operations are deploys, replans and engine runs (plus set-ups); a
   failure is an exception, a Plan_check rejection (which [Deploy]
   raises as [Invalid_argument]) or a failed output check. *)
let attempted = ref 0
let failed = ref 0
let problems = ref []

let fail what =
  incr failed;
  problems := what :: !problems;
  Printf.eprintf "CHECK FAILED: %s\n%!" what

let check what ok = if not ok then fail what

let attempt what f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
    fail (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
    None

(* --- traces -------------------------------------------------------------- *)

let root_span = "workload"

(* Self time per span name: a span's duration minus the part its direct
   children cover.  Spans are properly nested (one sequential caller),
   so sorting by start, widest first, and keeping a stack of open spans
   recovers the tree. *)
let self_times events =
  let spans =
    List.filter_map
      (fun (e : Obs.Span.event) ->
        match e.dur with Some dur -> Some (e.name, e.ts, dur) | None -> None)
      events
    |> List.stable_sort (fun (_, t1, d1) (_, t2, d2) ->
           match Float.compare t1 t2 with 0 -> Float.compare d2 d1 | c -> c)
  in
  let self = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace self name
      (v +. Option.value ~default:0. (Hashtbl.find_opt self name))
  in
  let rec pop_closed ts = function
    | (_, t, d) :: rest when t +. d <= ts -> pop_closed ts rest
    | stack -> stack
  in
  ignore
    (List.fold_left
       (fun stack ((name, ts, dur) as span) ->
         let stack = pop_closed ts stack in
         add name dur;
         (match stack with
         | (parent, _, _) :: _ -> add parent (-.dur)
         | [] -> ());
         span :: stack)
       [] spans);
  self

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end
