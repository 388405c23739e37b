type token =
  | IDENT of string
  | INT of int
  | KW of string
  | LBRACE | RBRACE
  | LBRACKET | RBRACKET
  | LPAREN | RPAREN
  | SEMI | COMMA
  | ARROW
  | BANG | QUEST
  | ASSIGN
  | EQ
  | OP of string
  | PLUS | MINUS | STAR
  | EOF

exception Lex_error of int * string

let keywords =
  [ "network"; "clock"; "int"; "chan"; "broadcast"; "process"; "state";
    "commit"; "urgent"; "init"; "trans"; "guard"; "when"; "sync"; "reset";
    "assign"; "true"; "false"; "not" ]

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let line = ref 1 in
  let emit t = tokens := (t, !line) :: !tokens in
  let rec scan i =
    if i >= n then emit EOF
    else
      let c = input.[i] in
      match c with
      | '\n' ->
        incr line;
        scan (i + 1)
      | ' ' | '\t' | '\r' -> scan (i + 1)
      | '/' when i + 1 < n && input.[i + 1] = '/' ->
        let rec skip j =
          if j >= n || input.[j] = '\n' then j else skip (j + 1)
        in
        scan (skip i)
      | '{' -> emit LBRACE; scan (i + 1)
      | '}' -> emit RBRACE; scan (i + 1)
      | '[' -> emit LBRACKET; scan (i + 1)
      | ']' -> emit RBRACKET; scan (i + 1)
      | '(' -> emit LPAREN; scan (i + 1)
      | ')' -> emit RPAREN; scan (i + 1)
      | ';' -> emit SEMI; scan (i + 1)
      | ',' -> emit COMMA; scan (i + 1)
      | '!' when i + 1 < n && input.[i + 1] = '=' -> emit (OP "!="); scan (i + 2)
      | '!' -> emit BANG; scan (i + 1)
      | '?' -> emit QUEST; scan (i + 1)
      | '+' -> emit PLUS; scan (i + 1)
      | '*' -> emit STAR; scan (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '>' -> emit ARROW; scan (i + 2)
      | '-' -> emit MINUS; scan (i + 1)
      | ':' when i + 1 < n && input.[i + 1] = '=' -> emit ASSIGN; scan (i + 2)
      | '<' when i + 1 < n && input.[i + 1] = '=' -> emit (OP "<="); scan (i + 2)
      | '<' -> emit (OP "<"); scan (i + 1)
      | '>' when i + 1 < n && input.[i + 1] = '=' -> emit (OP ">="); scan (i + 2)
      | '>' -> emit (OP ">"); scan (i + 1)
      | '=' when i + 1 < n && input.[i + 1] = '=' -> emit (OP "=="); scan (i + 2)
      | '=' -> emit EQ; scan (i + 1)
      | '&' when i + 1 < n && input.[i + 1] = '&' -> emit (OP "&&"); scan (i + 2)
      | '|' when i + 1 < n && input.[i + 1] = '|' -> emit (OP "||"); scan (i + 2)
      | c when is_digit c ->
        let rec stop j = if j < n && is_digit input.[j] then stop (j + 1) else j in
        let j = stop i in
        (match int_of_string_opt (String.sub input i (j - i)) with
         | Some v -> emit (INT v)
         | None -> raise (Lex_error (!line, "number out of range")));
        scan j
      | c when is_ident_start c ->
        let rec stop j =
          if j < n && is_ident_char input.[j] then stop (j + 1) else j
        in
        let j = stop i in
        let word = String.sub input i (j - i) in
        emit (if List.mem word keywords then KW word else IDENT word);
        scan j
      | c -> raise (Lex_error (!line, Fmt.str "unexpected character %C" c))
  in
  scan 0;
  List.rev !tokens

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %S" s
  | INT n -> Fmt.pf ppf "integer %d" n
  | KW s -> Fmt.pf ppf "keyword %S" s
  | LBRACE -> Fmt.string ppf "'{'"
  | RBRACE -> Fmt.string ppf "'}'"
  | LBRACKET -> Fmt.string ppf "'['"
  | RBRACKET -> Fmt.string ppf "']'"
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | SEMI -> Fmt.string ppf "';'"
  | COMMA -> Fmt.string ppf "','"
  | ARROW -> Fmt.string ppf "'->'"
  | BANG -> Fmt.string ppf "'!'"
  | QUEST -> Fmt.string ppf "'?'"
  | ASSIGN -> Fmt.string ppf "':='"
  | EQ -> Fmt.string ppf "'='"
  | OP s -> Fmt.pf ppf "operator %S" s
  | PLUS -> Fmt.string ppf "'+'"
  | MINUS -> Fmt.string ppf "'-'"
  | STAR -> Fmt.string ppf "'*'"
  | EOF -> Fmt.string ppf "end of input"
