type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- parsing ------------------------------------------------------------ *)

exception Bad of int * string

let fail pos fmt = Printf.ksprintf (fun m -> raise (Bad (pos, m))) fmt

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail !pos "expected %C, found %C" c d
    | None -> fail !pos "expected %C, found end of input" c
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub text !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail !pos "bad literal"
  in
  let utf8_add buf cp =
    (* encode one Unicode scalar value *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub text !pos 4) in
    match v with
    | Some v -> pos := !pos + 4; v
    | None -> fail !pos "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail !pos "unterminated string"
      | Some '"' -> advance (); Buffer.contents buf
      | Some '\\' ->
        advance ();
        (match peek () with
         | None -> fail !pos "unterminated escape"
         | Some c ->
           advance ();
           (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
              let cp = hex4 () in
              let cp =
                (* combine a surrogate pair when one follows *)
                if cp >= 0xd800 && cp <= 0xdbff && !pos + 6 <= n
                   && text.[!pos] = '\\' && text.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xdc00 && lo <= 0xdfff then
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  else fail !pos "unpaired surrogate"
                end
                else cp
              in
              utf8_add buf cp
            | c -> fail !pos "bad escape \\%c" c));
        go ()
      | Some c when Char.code c < 0x20 -> fail !pos "raw control character in string"
      | Some c -> advance (); Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance (); go ()
      | Some ('.' | 'e' | 'E') -> is_float := true; advance (); go ()
      | _ -> ()
    in
    go ();
    let s = String.sub text start (!pos - start) in
    if !is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail start "bad number %S" s
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        (* integer text too wide for an int: keep it as a float *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail start "bad number %S" s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else begin
        let rec fields acc =
          skip_ws ();
          let name = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((name, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((name, v) :: acc))
          | _ -> fail !pos "expected ',' or '}'"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); List [])
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail !pos "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos "unexpected %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail !pos "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad (pos, msg) ->
    Error (Printf.sprintf "json: at offset %d: %s" pos msg)

(* --- printing ----------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* shortest %g form that round-trips; %g never emits a bare trailing
       '.', so the result is always a valid JSON number.  An integral
       value gets a ".0", so it parses back as a [Float], not an [Int]. *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (function '.' | 'e' -> true | _ -> false) s then s
    else s ^ ".0"

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_into buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf name;
          Buffer.add_char buf ':';
          go item)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- accessors ---------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
