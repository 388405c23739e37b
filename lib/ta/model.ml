type loc_kind = Normal | Urgent | Committed

type location = {
  loc_name : string;
  loc_kind : loc_kind;
  loc_inv : Clockcons.t;
}

type sync =
  | Tau
  | Send of string
  | Recv of string

type edge = {
  edge_src : string;
  edge_dst : string;
  edge_guard : Clockcons.t;
  edge_pred : Expr.pred;
  edge_sync : sync;
  edge_resets : string list;
  edge_updates : (string * Expr.t) list;
}

type automaton = {
  aut_name : string;
  aut_locations : location list;
  aut_initial : string;
  aut_edges : edge list;
}

type chan_kind = Binary | Broadcast

type var_decl = {
  var_init : int;
  var_min : int;
  var_max : int;
}

type network = {
  net_name : string;
  net_clocks : string list;
  net_vars : (string * var_decl) list;
  net_channels : (string * chan_kind) list;
  net_automata : automaton list;
}

let location ?(kind = Normal) ?(inv = Clockcons.tt) name =
  { loc_name = name; loc_kind = kind; loc_inv = inv }

let edge ?(guard = Clockcons.tt) ?(pred = Expr.True) ?(sync = Tau)
    ?(resets = []) ?(updates = []) src dst =
  { edge_src = src;
    edge_dst = dst;
    edge_guard = guard;
    edge_pred = pred;
    edge_sync = sync;
    edge_resets = resets;
    edge_updates = updates }

let automaton ~name ~initial locations edges =
  { aut_name = name;
    aut_locations = locations;
    aut_initial = initial;
    aut_edges = edges }

let int_var ?(min = 0) ?(max = 1_000_000) init =
  { var_init = init; var_min = min; var_max = max }

let flag () = int_var ~min:0 ~max:1 0

let network ~name ~clocks ~vars ~channels automata =
  { net_name = name;
    net_clocks = clocks;
    net_vars = vars;
    net_channels = channels;
    net_automata = automata }

let find_automaton net name =
  List.find (fun a -> a.aut_name = name) net.net_automata

let find_location a name =
  List.find (fun l -> l.loc_name = name) a.aut_locations

let channel_kind net name = List.assoc name net.net_channels

let chans_matching select a =
  let add acc e =
    match select e.edge_sync with
    | Some c when not (List.mem c acc) -> c :: acc
    | Some _ | None -> acc
  in
  List.rev (List.fold_left add [] a.aut_edges)

let sends_of a =
  chans_matching (function Send c -> Some c | Recv _ | Tau -> None) a

let receives_of a =
  chans_matching (function Recv c -> Some c | Send _ | Tau -> None) a

let rename_channels mapping a =
  let rename_sync = function
    | Tau -> Tau
    | Send c -> Send (mapping c)
    | Recv c -> Recv (mapping c)
  in
  let rename_edge e = { e with edge_sync = rename_sync e.edge_sync } in
  { a with aut_edges = List.map rename_edge a.aut_edges }

let guard_all_edges ?(except = fun _ -> false) pred a =
  let strengthen e =
    if except e then e
    else { e with edge_pred = Expr.conj [ e.edge_pred; pred ] }
  in
  { a with aut_edges = List.map strengthen a.aut_edges }

let replace_automaton net name a =
  let subst b = if b.aut_name = name then a else b in
  { net with net_automata = List.map subst net.net_automata }

let add_automata net automata =
  { net with net_automata = net.net_automata @ automata }

let duplicates names =
  let sorted = List.sort compare names in
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
      scan (if a = b && not (List.mem a acc) then a :: acc else acc) rest
    | [ _ ] | [] -> acc
  in
  scan [] sorted

let validate net =
  let problems = ref [] in
  let fail fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  List.iter (fail "duplicate clock %S") (duplicates net.net_clocks);
  List.iter (fail "duplicate variable %S")
    (duplicates (List.map fst net.net_vars));
  List.iter (fail "duplicate channel %S")
    (duplicates (List.map fst net.net_channels));
  List.iter (fail "duplicate automaton %S")
    (duplicates (List.map (fun a -> a.aut_name) net.net_automata));
  let clock_known c = List.mem c net.net_clocks in
  let var_known v = List.mem_assoc v net.net_vars in
  let chan_known c = List.mem_assoc c net.net_channels in
  (* [where] prints a problem's owner: a valid network formats no names *)
  let check_clockcons where atoms =
    List.iter
      (fun c -> if not (clock_known c) then fail "%t: unknown clock %S" where c)
      (Clockcons.clocks atoms);
    (* Maximal-constant extrapolation is unsound in the presence of
       diagonal constraints, so the model layer forbids them; the zone
       layer still supports difference bounds internally. *)
    List.iter
      (fun atom ->
        match atom with
        | Clockcons.Diff (x, y, _, _) ->
          fail
            "%t: diagonal constraint on %s - %s; diagonal guards and \
             invariants are not supported (extrapolation would be unsound)"
            where x y
        | Clockcons.Simple _ -> ())
      atoms;
    List.iter
      (fun (Clockcons.Simple (_, _, n) | Clockcons.Diff (_, _, _, n)) ->
        if n > Clockcons.max_constant || n < - Clockcons.max_constant then
          fail "%t: clock constant %d exceeds %d in magnitude" where n
            Clockcons.max_constant)
      atoms
  in
  let check_pred where p =
    List.iter
      (fun v -> if not (var_known v) then fail "%t: unknown variable %S" where v)
      (Expr.vars_of_pred p)
  in
  let check_automaton a =
    let owner = a.aut_name in
    let loc_names = List.map (fun l -> l.loc_name) a.aut_locations in
    List.iter (fail "%s: duplicate location %S" owner) (duplicates loc_names);
    if not (List.mem a.aut_initial loc_names) then
      fail "%s: initial location %S undeclared" owner a.aut_initial;
    let at l ppf = Fmt.pf ppf "%s.%s" owner l.loc_name in
    List.iter (fun l -> check_clockcons (at l) l.loc_inv) a.aut_locations;
    let check_edge e =
      let where ppf = Fmt.pf ppf "%s: %s -> %s" owner e.edge_src e.edge_dst in
      if not (List.mem e.edge_src loc_names) then
        fail "%t: unknown source location" where;
      if not (List.mem e.edge_dst loc_names) then
        fail "%t: unknown target location" where;
      check_clockcons where e.edge_guard;
      check_pred where e.edge_pred;
      List.iter
        (fun c -> if not (clock_known c) then fail "%t: resets unknown clock %S" where c)
        e.edge_resets;
      List.iter
        (fun (v, rhs) ->
          if not (var_known v) then fail "%t: assigns unknown variable %S" where v;
          List.iter
            (fun u -> if not (var_known u) then fail "%t: unknown variable %S" where u)
            (Expr.vars_of_expr rhs))
        e.edge_updates;
      (match e.edge_sync with
       | Tau -> ()
       | Send c | Recv c ->
         if not (chan_known c) then fail "%t: unknown channel %S" where c);
      (match e.edge_sync with
       | Recv c
         when chan_known c
              && channel_kind net c = Broadcast
              && e.edge_guard <> [] ->
         fail "%t: broadcast receive on %S must not have a clock guard" where c
       | Recv _ | Send _ | Tau -> ())
    in
    List.iter check_edge a.aut_edges
  in
  List.iter check_automaton net.net_automata;
  List.rev !problems

let size net =
  let add (nl, ne) a =
    (nl + List.length a.aut_locations, ne + List.length a.aut_edges)
  in
  List.fold_left add (0, 0) net.net_automata

let pp_sync ppf = function
  | Tau -> Fmt.string ppf "tau"
  | Send c -> Fmt.pf ppf "%s!" c
  | Recv c -> Fmt.pf ppf "%s?" c

let pp_edge ppf e =
  Fmt.pf ppf "%s -> %s [%a; %a; %a" e.edge_src e.edge_dst Clockcons.pp
    e.edge_guard Expr.pp_pred e.edge_pred pp_sync e.edge_sync;
  if e.edge_resets <> [] then
    Fmt.pf ppf "; reset %a" Fmt.(list ~sep:comma string) e.edge_resets;
  List.iter (fun (v, rhs) -> Fmt.pf ppf "; %s := %a" v Expr.pp_expr rhs)
    e.edge_updates;
  Fmt.string ppf "]"

let pp_location ppf l =
  let kind =
    match l.loc_kind with
    | Normal -> ""
    | Urgent -> " (urgent)"
    | Committed -> " (committed)"
  in
  Fmt.pf ppf "%s%s inv: %a" l.loc_name kind Clockcons.pp l.loc_inv

let pp_automaton ppf a =
  Fmt.pf ppf "@[<v 2>automaton %s (init %s)@,%a@,%a@]" a.aut_name a.aut_initial
    Fmt.(list ~sep:cut pp_location)
    a.aut_locations
    Fmt.(list ~sep:cut pp_edge)
    a.aut_edges

let pp ppf net =
  Fmt.pf ppf "@[<v>network %s@,clocks: %a@,vars: %a@,channels: %a@,%a@]"
    net.net_name
    Fmt.(list ~sep:comma string)
    net.net_clocks
    Fmt.(list ~sep:comma (using fst string))
    net.net_vars
    Fmt.(list ~sep:comma (using fst string))
    net.net_channels
    Fmt.(list ~sep:cut pp_automaton)
    net.net_automata
