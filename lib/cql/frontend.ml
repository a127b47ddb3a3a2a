type error = {
  pos : Ast.pos option;
  message : string;
}

let compile_string text =
  match Compile.compile (Check.check (Parser.parse text)) with
  | compiled -> Ok compiled
  | exception Lexer.Error (pos, message) -> Error { pos = Some pos; message }
  | exception Parser.Error (pos, message) -> Error { pos = Some pos; message }
  | exception Check.Error (pos, message) ->
    (* Check diagnostics always carry a real position now that
       literals are located and the no-output error points at the last
       declaration. *)
    Error { pos = Some pos; message }
  | exception Invalid_argument message -> Error { pos = None; message }

let compile_file ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> compile_string text
  | exception Sys_error message -> Error { pos = None; message }

let error_to_string err =
  match err.pos with
  | Some { Ast.line; col } ->
    Printf.sprintf "line %d, column %d: %s" line col err.message
  | None -> err.message

let describe compiled =
  let buffer = Buffer.create 256 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let schema_to_string schema =
    String.concat ", "
      (List.map
         (fun (f, t) ->
           Printf.sprintf "%s: %s" f (Format.asprintf "%a" Ast.pp_field_type t))
         schema)
  in
  List.iteri
    (fun k (name, schema) ->
      out "input %d: %s (%s)\n" k name (schema_to_string schema))
    compiled.Compile.inputs;
  List.iter
    (fun (name, j) ->
      out "node %d: %s = %s\n" j name
        (Spe.Sop.kind (Spe.Network.op compiled.Compile.network j)))
    compiled.Compile.node_index;
  List.iter
    (fun (name, j) -> out "output: %s (operator %d)\n" name j)
    compiled.Compile.outputs;
  Buffer.contents buffer
