module M = Ta.Model
module CC = Ta.Clockcons

type edit = {
  ed_desc : string;
  ed_net : M.network;
}

(* A constraint site: one atom of one guard or invariant. *)
type site =
  | Guard of int * int * int  (* automaton, edge, atom *)
  | Inv of int * int * int    (* automaton, location, atom *)

let sites pred net =
  let acc = ref [] in
  List.iteri
    (fun ai (a : M.automaton) ->
      List.iteri
        (fun ei (e : M.edge) ->
          List.iteri
            (fun ci atom -> if pred atom then acc := Guard (ai, ei, ci) :: !acc)
            e.M.edge_guard)
        a.M.aut_edges;
      List.iteri
        (fun li (l : M.location) ->
          List.iteri
            (fun ci atom -> if pred atom then acc := Inv (ai, li, ci) :: !acc)
            l.M.loc_inv)
        a.M.aut_locations)
    net.M.net_automata;
  List.rev !acc

let nth_map i f xs = List.mapi (fun j x -> if j = i then f x else x) xs

let apply_site net site f =
  let on_automaton ai g =
    { net with
      M.net_automata = nth_map ai g net.M.net_automata }
  in
  match site with
  | Guard (ai, ei, ci) ->
    on_automaton ai (fun a ->
        { a with
          M.aut_edges =
            nth_map ei
              (fun e -> { e with M.edge_guard = nth_map ci f e.M.edge_guard })
              a.M.aut_edges })
  | Inv (ai, li, ci) ->
    on_automaton ai (fun a ->
        { a with
          M.aut_locations =
            nth_map li
              (fun l -> { l with M.loc_inv = nth_map ci f l.M.loc_inv })
              a.M.aut_locations })

let site_automaton net site =
  let ai = match site with Guard (ai, _, _) | Inv (ai, _, _) -> ai in
  (List.nth net.M.net_automata ai).M.aut_name

let atom_desc = Format.asprintf "%a" CC.pp_atom

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let tweak_constant rng net =
  match sites (fun _ -> true) net with
  | [] -> None
  | ss ->
    let site = pick rng ss in
    (* Small signed bumps, never below zero: clock comparisons against
       negative constants are degenerate. *)
    let delta = pick rng [ -2; -1; 1; 2 ] in
    let bump = function
      | CC.Simple (x, r, n) -> CC.Simple (x, r, max 0 (n + delta))
      | CC.Diff (x, y, r, n) -> CC.Diff (x, y, r, max 0 (n + delta))
    in
    let before = ref "" and after = ref "" in
    let net' =
      apply_site net site (fun atom ->
          let atom' = bump atom in
          before := atom_desc atom;
          after := atom_desc atom';
          atom')
    in
    Some
      { ed_desc =
          Printf.sprintf "%s: constant %s -> %s" (site_automaton net site)
            !before !after;
        ed_net = net' }

let flippable = function
  | CC.Simple (_, CC.Eq, _) | CC.Diff (_, _, CC.Eq, _) -> false
  | _ -> true

(* Flip one non-[Eq] comparison between strict and non-strict. *)
let tweak_guard rng net =
  match sites flippable net with
  | [] -> None
  | ss ->
    let site = pick rng ss in
    let flip_rel = function
      | CC.Lt -> CC.Le
      | CC.Le -> CC.Lt
      | CC.Gt -> CC.Ge
      | CC.Ge -> CC.Gt
      | CC.Eq -> CC.Eq
    in
    let flip = function
      | CC.Simple (x, r, n) -> CC.Simple (x, flip_rel r, n)
      | CC.Diff (x, y, r, n) -> CC.Diff (x, y, flip_rel r, n)
    in
    let before = ref "" and after = ref "" in
    let net' =
      apply_site net site (fun atom ->
          let atom' = flip atom in
          before := atom_desc atom;
          after := atom_desc atom';
          atom')
    in
    Some
      { ed_desc =
          Printf.sprintf "%s: relation %s -> %s" (site_automaton net site)
            !before !after;
        ed_net = net' }

(* The inert automata we add share nothing with the rest of the network
   — no channels, variables or clocks — so declarations are untouched
   and the cone analysis can prove them invisible. *)
let inert_prefix = "psv_inert_"

let inert_automaton name =
  M.automaton ~name ~initial:"A"
    [ M.location "A"; M.location "B" ]
    [ M.edge "A" "B"; M.edge "B" "A" ]

(* Add a disconnected, time-inert two-location automaton (declarations
   unchanged), or remove one added earlier: the cone's automaton
   add/remove path. *)
let toggle_inert rng net =
  let ours =
    List.filter
      (fun (a : M.automaton) ->
        String.length a.M.aut_name > String.length inert_prefix
        && String.sub a.M.aut_name 0 (String.length inert_prefix) = inert_prefix)
      net.M.net_automata
  in
  if ours <> [] && Random.State.bool rng then
    let victim = (pick rng ours).M.aut_name in
    Some
      { ed_desc = Printf.sprintf "remove automaton %s" victim;
        ed_net =
          { net with
            M.net_automata =
              List.filter
                (fun (a : M.automaton) -> a.M.aut_name <> victim)
                net.M.net_automata } }
  else
    let rec fresh i =
      let name = Printf.sprintf "%s%d" inert_prefix i in
      if
        List.exists
          (fun (a : M.automaton) -> a.M.aut_name = name)
          net.M.net_automata
      then fresh (i + 1)
      else name
    in
    let name = fresh (Random.State.int rng 100) in
    Some
      { ed_desc = Printf.sprintf "add automaton %s" name;
        ed_net = M.add_automata net [ inert_automaton name ] }

let random_edit rng net =
  let candidates =
    List.filter_map
      (fun f -> f rng net)
      (* Weight toward the constant tweaks the paper's workflow is
         about; the structural edits keep the other rungs honest. *)
      [ tweak_constant; tweak_constant; tweak_guard; toggle_inert ]
  in
  match candidates with
  | [] -> invalid_arg "Incr.Edit.random_edit: network offers no edit site"
  | cs -> pick rng cs
