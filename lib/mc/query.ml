type pred =
  | At of string * string
  | Cmp of string * Ta.Expr.rel * int
  | Const of bool
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type t =
  | Exists_eventually of pred
  | Always of pred
  | Sup_delay of { trigger : string; response : string; ceiling : int }
  | Bounded_response of { trigger : string; response : string; bound : int }

type outcome =
  | Holds
  | Fails of string list option
  | Sup of Explorer.sup_result
  | Unknown of Runctl.reason * Explorer.sup_result option

type result = {
  res_outcome : outcome;
  res_stats : Explorer.stats;
}

(* --- tokenising --------------------------------------------------------- *)

type token =
  | Word of string
  | Num of int
  | Op of string  (* comparison operators, "->", parens, "." *)

exception Bad_query of string

let fail fmt = Fmt.kstr (fun s -> raise (Bad_query s)) fmt

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
    || (c >= '0' && c <= '9')
  in
  let rec scan i =
    if i >= n then ()
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1)
      | '(' -> emit (Op "("); scan (i + 1)
      | ')' -> emit (Op ")"); scan (i + 1)
      | '.' -> emit (Op "."); scan (i + 1)
      | ':' -> emit (Op ":"); scan (i + 1)
      | '-' when i + 1 < n && text.[i + 1] = '>' -> emit (Op "->"); scan (i + 2)
      | '<' when i + 1 < n && text.[i + 1] = '>' -> emit (Op "<>"); scan (i + 2)
      | '<' when i + 1 < n && text.[i + 1] = '=' -> emit (Op "<="); scan (i + 2)
      | '<' -> emit (Op "<"); scan (i + 1)
      | '>' when i + 1 < n && text.[i + 1] = '=' -> emit (Op ">="); scan (i + 2)
      | '>' -> emit (Op ">"); scan (i + 1)
      | '=' when i + 1 < n && text.[i + 1] = '=' -> emit (Op "=="); scan (i + 2)
      | '!' when i + 1 < n && text.[i + 1] = '=' -> emit (Op "!="); scan (i + 2)
      | '[' when i + 1 < n && text.[i + 1] = ']' -> emit (Op "[]"); scan (i + 2)
      | 'E' when i + 2 < n && text.[i + 1] = '<' && text.[i + 2] = '>' ->
        emit (Word "E");
        emit (Op "<>");
        scan (i + 3)
      | c when c >= '0' && c <= '9' ->
        let rec stop j =
          if j < n && text.[j] >= '0' && text.[j] <= '9' then stop (j + 1)
          else j
        in
        let j = stop i in
        (match int_of_string_opt (String.sub text i (j - i)) with
         | Some v -> emit (Num v)
         | None -> fail "number out of range");
        scan j
      | c when is_word c ->
        let rec stop j = if j < n && is_word text.[j] then stop (j + 1) else j in
        let j = stop i in
        emit (Word (String.sub text i (j - i)));
        scan j
      | c -> fail "unexpected character %C" c
  in
  scan 0;
  List.rev !tokens

(* --- parsing ------------------------------------------------------------- *)

let rel_of_op = function
  | "==" -> Some Ta.Expr.Eq
  | "!=" -> Some Ta.Expr.Ne
  | "<" -> Some Ta.Expr.Lt
  | "<=" -> Some Ta.Expr.Le
  | ">" -> Some Ta.Expr.Gt
  | ">=" -> Some Ta.Expr.Ge
  | _ -> None

let rec parse_pred tokens =
  let term, rest = parse_term tokens in
  match rest with
  | Word "or" :: rest ->
    let rhs, rest = parse_pred rest in
    (Or (term, rhs), rest)
  | _ -> (term, rest)

and parse_term tokens =
  let factor, rest = parse_factor tokens in
  match rest with
  | Word "and" :: rest ->
    let rhs, rest = parse_term rest in
    (And (factor, rhs), rest)
  | _ -> (factor, rest)

and parse_factor = function
  | Word "not" :: rest ->
    let p, rest = parse_factor rest in
    (Not p, rest)
  | Word "true" :: rest -> (Const true, rest)
  | Word "false" :: rest -> (Const false, rest)
  | Op "(" :: rest ->
    let p, rest = parse_pred rest in
    (match rest with
     | Op ")" :: rest -> (p, rest)
     | _ -> fail "missing closing parenthesis")
  | Word w :: Op "." :: Word l :: rest -> (At (w, l), rest)
  | Word w :: Op op :: Num v :: rest ->
    (match rel_of_op op with
     | Some rel -> (Cmp (w, rel, v), rest)
     | None -> fail "expected a comparison after %S" w)
  | Word w :: _ -> fail "dangling identifier %S" w
  | Num v :: _ -> fail "unexpected number %d" v
  | Op op :: _ -> fail "unexpected %S" op
  | [] -> fail "unexpected end of query"

let parse_chain rest =
  match rest with
  | Word trigger :: Op "->" :: Word response :: rest ->
    (trigger, response, rest)
  | _ -> fail "expected CHAN -> CHAN"

(* A ceiling or bound becomes a clock constant of the delay monitor. *)
let clock_constant what n =
  match Ta.Clockcons.check_constant what n with
  | Ok n -> n
  | Error msg -> fail "%s" msg

let parse text =
  match tokenize text with
  | exception Bad_query msg -> Error msg
  | tokens ->
    (try
       match tokens with
       | Word "E" :: Op "<>" :: rest ->
         let p, rest = parse_pred rest in
         if rest <> [] then fail "trailing tokens after predicate";
         Ok (Exists_eventually p)
       | Word "A" :: Op "[]" :: rest ->
         let p, rest = parse_pred rest in
         if rest <> [] then fail "trailing tokens after predicate";
         Ok (Always p)
       | Word "sup" :: Op ":" :: rest ->
         let trigger, response, rest = parse_chain rest in
         let ceiling =
           match rest with
           | [] -> 10_000
           | [ Word "ceiling"; Num c ] -> clock_constant "ceiling" c
           | _ -> fail "expected 'ceiling N' or end"
         in
         Ok (Sup_delay { trigger; response; ceiling })
       | Word "bounded" :: Op ":" :: rest ->
         let trigger, response, rest = parse_chain rest in
         (match rest with
          | [ Word "within"; Num bound ] ->
            let bound = clock_constant "bound" bound in
            Ok (Bounded_response { trigger; response; bound })
          | _ -> fail "expected 'within N'")
       | _ -> fail "a query starts with E<>, A[], sup: or bounded:"
     with Bad_query msg -> Error msg)

(* --- canonical printing -------------------------------------------------- *)

let string_of_rel = function
  | Ta.Expr.Eq -> "=="
  | Ta.Expr.Ne -> "!="
  | Ta.Expr.Lt -> "<"
  | Ta.Expr.Le -> "<="
  | Ta.Expr.Gt -> ">"
  | Ta.Expr.Ge -> ">="

(* Every binary node is parenthesized, so the output re-parses to the
   same tree regardless of the grammar's precedence and associativity;
   [parse (to_string q) = Ok q] is checked by the test suite.  This is
   the canonical query text that feeds the cache key ({!Keys.Key}). *)
let rec pred_to_string = function
  | At (aut, loc) -> aut ^ "." ^ loc
  | Cmp (v, rel, n) -> Printf.sprintf "%s %s %d" v (string_of_rel rel) n
  | Const true -> "true"
  | Const false -> "false"
  | And (a, b) ->
    Printf.sprintf "(%s and %s)" (pred_to_string a) (pred_to_string b)
  | Or (a, b) ->
    Printf.sprintf "(%s or %s)" (pred_to_string a) (pred_to_string b)
  | Not (At _ as p) | Not (Const _ as p) -> "not " ^ pred_to_string p
  | Not p -> Printf.sprintf "not (%s)" (pred_to_string p)

let to_string = function
  | Exists_eventually p -> "E<> " ^ pred_to_string p
  | Always p -> "A[] " ^ pred_to_string p
  | Sup_delay { trigger; response; ceiling } ->
    Printf.sprintf "sup: %s -> %s ceiling %d" trigger response ceiling
  | Bounded_response { trigger; response; bound } ->
    Printf.sprintf "bounded: %s -> %s within %d" trigger response bound

(* --- evaluation ----------------------------------------------------------- *)

let compile_pred t p =
  let rec build = function
    | At (aut, loc) -> Explorer.at t ~aut ~loc
    | Cmp (v, rel, n) ->
      let value = Explorer.var_value t v in
      let holds =
        match rel with
        | Ta.Expr.Lt -> fun x -> x < n
        | Ta.Expr.Le -> fun x -> x <= n
        | Ta.Expr.Eq -> fun x -> x = n
        | Ta.Expr.Ge -> fun x -> x >= n
        | Ta.Expr.Gt -> fun x -> x > n
        | Ta.Expr.Ne -> fun x -> x <> n
      in
      fun st -> holds (value st)
    | Const b -> fun _ -> b
    | And (a, b) ->
      let fa = build a and fb = build b in
      fun st -> fa st && fb st
    | Or (a, b) ->
      let fa = build a and fb = build b in
      fun st -> fa st || fb st
    | Not a ->
      let fa = build a in
      fun st -> not (fa st)
  in
  build p

let delay_monitor_clock = "psv_delay_mon"

let max_delay ?limit ?ctl ?resume ?until net ~trigger ~response ~ceiling =
  let monitor =
    Monitor.delay ~trigger ~response ~clock:delay_monitor_clock ~ceiling ()
  in
  let t = Explorer.make ?limit ~monitor net in
  Explorer.sup_clock ?ctl ?resume ?until t
    ~pred:(Explorer.mon_in t "Waiting")
    ~clock:delay_monitor_clock

let result_of_sup (o : Explorer.sup_outcome) =
  let outcome =
    match o.Explorer.so_interrupt with
    | Some reason -> Unknown (reason, Some o.Explorer.so_sup)
    | None -> Sup o.Explorer.so_sup
  in
  { res_outcome = outcome; res_stats = o.Explorer.so_stats }

(* A sup past [bound] refutes P(bound); [Sup_unreached] (the trigger
   never fires) does not.  Monotone in the sup, so it is also the
   bounded search's stop rule. *)
let refutes ~bound = function
  | Explorer.Sup_unreached -> false
  | Explorer.Sup (v, _) -> v > bound
  | Explorer.Sup_exceeds _ -> true

let bounded_of_sup outcome ~bound =
  match outcome with
  | Sup s -> if refutes ~bound s then Fails None else Holds
  (* the partial sup only grows with more exploration, so a partial
     value already past the bound refutes even under interruption *)
  | Unknown (_, Some s) when refutes ~bound s -> Fails None
  | Unknown _ | Holds | Fails _ -> outcome

let eval ?jobs:_ ?ctl ?limit net q =
  match q with
  | Exists_eventually p ->
    let t = Explorer.make ?limit net in
    let r = Explorer.reachable ?ctl t (compile_pred t p) in
    let outcome =
      match r.Explorer.r_trace, r.Explorer.r_interrupt with
      | Some _, _ -> Holds  (* a witness is a witness, budget or not *)
      | None, Some reason -> Unknown (reason, None)
      | None, None -> Fails None
    in
    { res_outcome = outcome; res_stats = r.Explorer.r_stats }
  | Always p ->
    let t = Explorer.make ?limit net in
    let r =
      Explorer.reachable ?ctl t (fun st -> not (compile_pred t p st))
    in
    let outcome =
      match r.Explorer.r_trace, r.Explorer.r_interrupt with
      | Some trace, _ -> Fails (Some trace)
      | None, Some reason -> Unknown (reason, None)
      | None, None -> Holds
    in
    { res_outcome = outcome; res_stats = r.Explorer.r_stats }
  | Sup_delay { trigger; response; ceiling } ->
    result_of_sup (max_delay ?ctl ?limit net ~trigger ~response ~ceiling)
  | Bounded_response { trigger; response; bound } ->
    (* the sup with ceiling = bound, exact at the bound, stopped at the
       first stored state whose running sup refutes it *)
    let r =
      result_of_sup
        (max_delay ?ctl ?limit ~until:(refutes ~bound) net ~trigger ~response
           ~ceiling:bound)
    in
    { r with res_outcome = bounded_of_sup r.res_outcome ~bound }

let pp_outcome ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Fails None -> Fmt.string ppf "FAILS"
  | Fails (Some trace) ->
    Fmt.pf ppf "FAILS (counterexample of %d steps)" (List.length trace)
  | Sup sup -> Fmt.pf ppf "sup = %a" Explorer.pp_sup_result sup
  | Unknown (reason, None) ->
    Fmt.pf ppf "UNKNOWN (%a)" Runctl.pp_reason reason
  | Unknown (reason, Some partial) ->
    Fmt.pf ppf "UNKNOWN (%a; sup so far %a)" Runctl.pp_reason reason
      Explorer.pp_sup_result partial
