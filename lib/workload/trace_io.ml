let to_string trace =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (Printf.sprintf "# rodtrace dt=%.17g\n" trace.Trace.dt);
  Array.iter
    (fun rate -> Buffer.add_string buffer (Printf.sprintf "%.17g\n" rate))
    trace.Trace.rates;
  Buffer.contents buffer

let of_string text =
  let error line msg = Error (Printf.sprintf "line %d: %s" line msg) in
  (* [String.split_on_char] returns at least one line. *)
  let header, body =
    match String.split_on_char '\n' text with
    | header :: body -> (header, body)
    | [] -> ("", [])
  in
  let rec rates line acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
      let raw = String.trim raw in
      if raw = "" || raw.[0] = '#' then rates (line + 1) acc rest
      else
        match float_of_string_opt raw with
        | Some r when Float.is_finite r && r >= 0. ->
          rates (line + 1) (r :: acc) rest
        | Some _ | None ->
          error line
            (Printf.sprintf "bad rate %S (expected a finite rate >= 0)" raw))
  in
  match String.split_on_char '=' (String.trim header) with
  | [ prefix; value ] when String.trim prefix = "# rodtrace dt" -> (
    match float_of_string_opt (String.trim value) with
    | Some dt when Float.is_finite dt && dt > 0. -> (
      match rates 2 [] body with
      | Ok [] -> error 1 "no rates after the header"
      | Ok rs -> Ok (Trace.create ~dt (Array.of_list rs))
      | Error _ as e -> e)
    | Some _ | None ->
      error 1 (Printf.sprintf "bad dt %S (expected a finite dt > 0)" value))
  | _ -> error 1 "expected header '# rodtrace dt=...'"

let save trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string trace))

let load ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | text -> (
          match of_string text with
          | Ok _ as ok -> ok
          | Error msg -> Error (path ^ ": " ^ msg))
        | exception Sys_error msg -> Error msg)
