type t =
  | Int of int
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t

type rel = Lt | Le | Eq | Ge | Gt | Ne

type pred =
  | True
  | False
  | Cmp of t * rel * t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

let int n = Int n
let var x = Var x
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)

let eq a b = Cmp (a, Eq, b)
let ne a b = Cmp (a, Ne, b)
let lt a b = Cmp (a, Lt, b)
let le a b = Cmp (a, Le, b)
let gt a b = Cmp (a, Gt, b)
let ge a b = Cmp (a, Ge, b)

let conj ps =
  let join acc p =
    match acc, p with
    | True, p -> p
    | acc, True -> acc
    | acc, p -> And (acc, p)
  in
  List.fold_left join True ps

let var_eq x n = eq (Var x) (Int n)

let rec add_vars_expr acc e =
  match e with
  | Int _ -> acc
  | Var x -> if List.mem x acc then acc else x :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> add_vars_expr (add_vars_expr acc a) b
  | Neg a -> add_vars_expr acc a

let rec add_vars_pred acc p =
  match p with
  | True | False -> acc
  | Cmp (a, _, b) -> add_vars_expr (add_vars_expr acc a) b
  | And (a, b) | Or (a, b) -> add_vars_pred (add_vars_pred acc a) b
  | Not a -> add_vars_pred acc a

let vars_of_expr e = List.rev (add_vars_expr [] e)
let vars_of_pred p = List.rev (add_vars_pred [] p)

let rec eval_expr env e =
  match e with
  | Int n -> n
  | Var x -> env x
  | Add (a, b) -> Stdlib.( + ) (eval_expr env a) (eval_expr env b)
  | Sub (a, b) -> Stdlib.( - ) (eval_expr env a) (eval_expr env b)
  | Mul (a, b) -> Stdlib.( * ) (eval_expr env a) (eval_expr env b)
  | Neg a -> Stdlib.( - ) 0 (eval_expr env a)

let holds rel a b =
  match rel with
  | Lt -> a < b
  | Le -> a <= b
  | Eq -> a = b
  | Ge -> a >= b
  | Gt -> a > b
  | Ne -> a <> b

let rec eval_pred env p =
  match p with
  | True -> true
  | False -> false
  | Cmp (a, rel, b) -> holds rel (eval_expr env a) (eval_expr env b)
  | And (a, b) -> eval_pred env a && eval_pred env b
  | Or (a, b) -> eval_pred env a || eval_pred env b
  | Not a -> not (eval_pred env a)

let rec compile_expr ~index e =
  match e with
  | Int n -> fun _ -> n
  | Var x ->
    let i = index x in
    fun vals -> vals.(i)
  | Add (a, b) ->
    let fa = compile_expr ~index a and fb = compile_expr ~index b in
    fun vals -> Stdlib.( + ) (fa vals) (fb vals)
  | Sub (a, b) ->
    let fa = compile_expr ~index a and fb = compile_expr ~index b in
    fun vals -> Stdlib.( - ) (fa vals) (fb vals)
  | Mul (a, b) ->
    let fa = compile_expr ~index a and fb = compile_expr ~index b in
    fun vals -> Stdlib.( * ) (fa vals) (fb vals)
  | Neg a ->
    let fa = compile_expr ~index a in
    fun vals -> Stdlib.( - ) 0 (fa vals)

let rec compile_pred ~index p =
  match p with
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (a, rel, b) ->
    let fa = compile_expr ~index a and fb = compile_expr ~index b in
    fun vals -> holds rel (fa vals) (fb vals)
  | And (a, b) ->
    let fa = compile_pred ~index a and fb = compile_pred ~index b in
    fun vals -> fa vals && fb vals
  | Or (a, b) ->
    let fa = compile_pred ~index a and fb = compile_pred ~index b in
    fun vals -> fa vals || fb vals
  | Not a ->
    let fa = compile_pred ~index a in
    fun vals -> not (fa vals)

(* Printing writes into a [Buffer]: this text is part of the canonical
   [.xta] form that store keys digest, so it has one implementation and
   the [pp_*] functions are thin wrappers for diagnostics.

   Negative literals print parenthesised so that printing is stable under
   re-parsing: both [Int (-7)] and [Neg (Int 7)] render as ["(-7)"]. *)
let rec write_expr b e =
  match e with
  | Int n ->
    if n < 0 then begin
      Buffer.add_char b '(';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b ')'
    end
    else Buffer.add_string b (string_of_int n)
  | Var x -> Buffer.add_string b x
  | Add (x, y) -> write_binop b x " + " y
  | Sub (x, y) -> write_binop b x " - " y
  | Mul (x, y) -> write_binop b x " * " y
  | Neg a ->
    Buffer.add_string b "(-";
    write_expr b a;
    Buffer.add_char b ')'

and write_binop b x op y =
  Buffer.add_char b '(';
  write_expr b x;
  Buffer.add_string b op;
  write_expr b y;
  Buffer.add_char b ')'

let rel_text = function
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "=="
  | Ge -> ">="
  | Gt -> ">"
  | Ne -> "!="

let rec write_pred b p =
  match p with
  | True -> Buffer.add_string b "true"
  | False -> Buffer.add_string b "false"
  | Cmp (x, rel, y) ->
    write_expr b x;
    Buffer.add_char b ' ';
    Buffer.add_string b (rel_text rel);
    Buffer.add_char b ' ';
    write_expr b y
  | And (x, y) -> write_connective b x " && " y
  | Or (x, y) -> write_connective b x " || " y
  | Not a ->
    Buffer.add_string b "!(";
    write_pred b a;
    Buffer.add_char b ')'

and write_connective b x op y =
  Buffer.add_char b '(';
  write_pred b x;
  Buffer.add_string b op;
  write_pred b y;
  Buffer.add_char b ')'

let text write v =
  let b = Buffer.create 32 in
  write b v;
  Buffer.contents b

let pp_expr ppf e = Fmt.string ppf (text write_expr e)
let pp_rel ppf rel = Fmt.string ppf (rel_text rel)
let pp_pred ppf p = Fmt.string ppf (text write_pred p)
