(* Reference model of Xta.Print: the Format printer the canonical text
   was defined by, kept verbatim (vertical boxes under [Fmt.str]'s
   default margin, [Fmt.comma] separators), together with the
   [Ta.Expr] and [Ta.Clockcons] printers it called.  Xta.Print must
   reproduce it byte for byte: the text is what store keys, snapshot
   fingerprints and session files digest, so a drifting printer would
   silently orphan all of them. *)

open Ta

let rec pp_expr ppf e =
  match e with
  | Expr.Int n -> if n < 0 then Fmt.pf ppf "(%d)" n else Fmt.int ppf n
  | Expr.Var x -> Fmt.string ppf x
  | Expr.Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp_expr a pp_expr b
  | Expr.Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp_expr a pp_expr b
  | Expr.Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp_expr a pp_expr b
  | Expr.Neg a -> Fmt.pf ppf "(-%a)" pp_expr a

let pp_rel ppf rel =
  let s =
    match rel with
    | Expr.Lt -> "<"
    | Expr.Le -> "<="
    | Expr.Eq -> "=="
    | Expr.Ge -> ">="
    | Expr.Gt -> ">"
    | Expr.Ne -> "!="
  in
  Fmt.string ppf s

let rec pp_pred ppf p =
  match p with
  | Expr.True -> Fmt.string ppf "true"
  | Expr.False -> Fmt.string ppf "false"
  | Expr.Cmp (a, rel, b) -> Fmt.pf ppf "%a %a %a" pp_expr a pp_rel rel pp_expr b
  | Expr.And (a, b) -> Fmt.pf ppf "(%a && %a)" pp_pred a pp_pred b
  | Expr.Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp_pred a pp_pred b
  | Expr.Not a -> Fmt.pf ppf "!(%a)" pp_pred a

let pp_cc_rel ppf rel =
  let s =
    match rel with
    | Clockcons.Lt -> "<"
    | Clockcons.Le -> "<="
    | Clockcons.Eq -> "=="
    | Clockcons.Ge -> ">="
    | Clockcons.Gt -> ">"
  in
  Fmt.string ppf s

let pp_atom ppf = function
  | Clockcons.Simple (x, rel, n) -> Fmt.pf ppf "%s %a %d" x pp_cc_rel rel n
  | Clockcons.Diff (x, y, rel, n) -> Fmt.pf ppf "%s - %s %a %d" x y pp_cc_rel rel n

let pp_clockcons ppf atoms =
  match atoms with
  | [] -> Fmt.string ppf "true"
  | atoms -> Fmt.(list ~sep:(any " && ") pp_atom) ppf atoms

let pp_state ppf (l : Model.location) =
  if l.Model.loc_inv = [] then Fmt.string ppf l.Model.loc_name
  else Fmt.pf ppf "%s { %a }" l.Model.loc_name pp_clockcons l.Model.loc_inv

let pp_kind_group ppf (kw, names) =
  if names <> [] then
    Fmt.pf ppf "  %s %a;@," kw Fmt.(list ~sep:comma string) names

let pp_trans ppf (e : Model.edge) =
  Fmt.pf ppf "%s -> %s {" e.Model.edge_src e.Model.edge_dst;
  if e.Model.edge_guard <> [] then
    Fmt.pf ppf " guard %a;" pp_clockcons e.Model.edge_guard;
  (match e.Model.edge_pred with
   | Expr.True -> ()
   | pred -> Fmt.pf ppf " when %a;" pp_pred pred);
  (match e.Model.edge_sync with
   | Model.Tau -> ()
   | Model.Send c -> Fmt.pf ppf " sync %s!;" c
   | Model.Recv c -> Fmt.pf ppf " sync %s?;" c);
  if e.Model.edge_resets <> [] then
    Fmt.pf ppf " reset %a;" Fmt.(list ~sep:comma string) e.Model.edge_resets;
  if e.Model.edge_updates <> [] then begin
    let pp_update ppf (v, rhs) = Fmt.pf ppf "%s := %a" v pp_expr rhs in
    Fmt.pf ppf " assign %a;" Fmt.(list ~sep:comma pp_update) e.Model.edge_updates
  end;
  Fmt.string ppf " }"

let pp_process ppf (a : Model.automaton) =
  Fmt.pf ppf "@[<v>process %s {@," a.Model.aut_name;
  Fmt.pf ppf "  @[<v>state@,  %a;@]@,"
    Fmt.(list ~sep:(any ",@,  ") pp_state)
    a.Model.aut_locations;
  let of_kind kind =
    List.filter_map
      (fun (l : Model.location) ->
        if l.Model.loc_kind = kind then Some l.Model.loc_name else None)
      a.Model.aut_locations
  in
  pp_kind_group ppf ("commit", of_kind Model.Committed);
  pp_kind_group ppf ("urgent", of_kind Model.Urgent);
  Fmt.pf ppf "  init %s;@," a.Model.aut_initial;
  if a.Model.aut_edges <> [] then
    Fmt.pf ppf "  @[<v>trans@,  %a;@]@,"
      Fmt.(list ~sep:(any ",@,  ") pp_trans)
      a.Model.aut_edges;
  Fmt.pf ppf "}@]"

let network ppf (net : Model.network) =
  Fmt.pf ppf "@[<v>network %s;@,@," net.Model.net_name;
  if net.Model.net_clocks <> [] then
    Fmt.pf ppf "clock %a;@,"
      Fmt.(list ~sep:comma string)
      net.Model.net_clocks;
  List.iter
    (fun (v, d) ->
      Fmt.pf ppf "int[%d,%d] %s = %d;@," d.Model.var_min d.Model.var_max v
        d.Model.var_init)
    net.Model.net_vars;
  List.iter
    (fun (c, kind) ->
      match kind with
      | Model.Binary -> Fmt.pf ppf "chan %s;@," c
      | Model.Broadcast -> Fmt.pf ppf "broadcast chan %s;@," c)
    net.Model.net_channels;
  Fmt.pf ppf "@,%a@]"
    Fmt.(list ~sep:(any "@,@,") pp_process)
    net.Model.net_automata

let to_string net = Fmt.str "%a" network net
