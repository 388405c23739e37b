type rel = Lt | Le | Eq | Ge | Gt

type atom =
  | Simple of string * rel * int
  | Diff of string * string * rel * int

type t = atom list

let tt = []

let max_constant = 1 lsl 32

let check_constant what n =
  if n > max_constant then
    Error
      (Printf.sprintf "%s %d exceeds the largest supported clock constant %d"
         what n max_constant)
  else Ok n

let lt x n = Simple (x, Lt, n)
let le x n = Simple (x, Le, n)
let eq_ x n = Simple (x, Eq, n)
let ge x n = Simple (x, Ge, n)
let gt x n = Simple (x, Gt, n)

let clocks atoms =
  let add acc x = if List.mem x acc then acc else x :: acc in
  let step acc = function
    | Simple (x, _, _) -> add acc x
    | Diff (x, y, _, _) -> add (add acc x) y
  in
  List.rev (List.fold_left step [] atoms)

let max_consts atoms =
  let bump acc x n =
    let n = abs n in
    match List.assoc_opt x acc with
    | Some m when m >= n -> acc
    | Some _ -> (x, n) :: List.remove_assoc x acc
    | None -> (x, n) :: acc
  in
  let step acc = function
    | Simple (x, _, n) -> bump acc x n
    | Diff (x, y, _, n) -> bump (bump acc x n) y n
  in
  List.fold_left step [] atoms

let holds rel a b =
  match rel with
  | Lt -> a < b
  | Le -> a <= b
  | Eq -> a = b
  | Ge -> a >= b
  | Gt -> a > b

let sat values atoms =
  let check = function
    | Simple (x, rel, n) -> holds rel (values x) n
    | Diff (x, y, rel, n) -> holds rel (values x - values y) n
  in
  List.for_all check atoms

(* The canonical text of a conjunction is written into a [Buffer] (it
   is part of the [.xta] text store keys digest); [pp_atom] and [pp]
   wrap the same writers for diagnostics. *)
let rel_text = function Lt -> "<" | Le -> "<=" | Eq -> "==" | Ge -> ">=" | Gt -> ">"

let write_atom b atom =
  let cmp rel n =
    Buffer.add_char b ' ';
    Buffer.add_string b (rel_text rel);
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int n)
  in
  match atom with
  | Simple (x, rel, n) ->
    Buffer.add_string b x;
    cmp rel n
  | Diff (x, y, rel, n) ->
    Buffer.add_string b x;
    Buffer.add_string b " - ";
    Buffer.add_string b y;
    cmp rel n

let write b atoms =
  match atoms with
  | [] -> Buffer.add_string b "true"
  | first :: rest ->
    write_atom b first;
    List.iter
      (fun atom ->
        Buffer.add_string b " && ";
        write_atom b atom)
      rest

let text write v =
  let b = Buffer.create 32 in
  write b v;
  Buffer.contents b

let pp_atom ppf atom = Fmt.string ppf (text write_atom atom)
let pp ppf atoms = Fmt.string ppf (text write atoms)
