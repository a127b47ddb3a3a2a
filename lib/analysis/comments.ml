type line = { lnum : int; text : string; opens_line : bool }
type t = line list

let empty = []

let find_sub s needle =
  let sl = String.length s and nl = String.length needle in
  let rec scan i =
    if i + nl > sl then None
    else if String.sub s i nl = needle then Some i
    else scan (i + 1)
  in
  scan 0

let blank s = String.trim s = ""

let of_string source =
  let lexbuf = Lexing.from_string source in
  let saved = !Lexer.print_warnings in
  Lexer.print_warnings := false;
  Lexer.init ();
  Docstrings.init ();
  (try
     let rec drain () =
       match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
     in
     drain ()
   with _ -> ());
  Lexer.print_warnings := saved;
  Lexer.comments ()
  |> List.concat_map (fun (body, (loc : Location.t)) ->
         let start = loc.loc_start in
         let before =
           String.sub source start.pos_bol (start.pos_cnum - start.pos_bol)
         in
         String.split_on_char '\n' body
         |> List.mapi (fun i text ->
                {
                  lnum = start.pos_lnum + i;
                  text;
                  opens_line = i = 0 && blank before;
                }))

type hit = { line : int; rest : string; leads : bool }

let find t marker =
  List.filter_map
    (fun l ->
      match find_sub l.text marker with
      | None -> None
      | Some i ->
        let after = i + String.length marker in
        Some
          {
            line = l.lnum;
            rest = String.sub l.text after (String.length l.text - after);
            (* A docstring's body keeps the second star of its opener. *)
            leads =
              l.opens_line
              && List.mem (String.trim (String.sub l.text 0 i)) [ ""; "*" ];
          })
    t

let mem t marker = find t marker <> []

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun w -> w <> "")
