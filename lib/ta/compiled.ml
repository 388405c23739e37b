type dconstraint = {
  dc_i : int;
  dc_j : int;
  dc_strict : bool;
  dc_bound : int;
}

type csync = CTau | CSend of int | CRecv of int

type cedge = {
  ce_aut : int;
  ce_index : int;
  ce_src : int;
  ce_dst : int;
  ce_guard : dconstraint list;
  ce_pred : int array -> bool;
  ce_sync : csync;
  ce_resets : int list;
  ce_updates : (int * (int array -> int)) list;
}

type cloc = {
  cl_name : string;
  cl_kind : Model.loc_kind;
  cl_inv : dconstraint list;
  cl_free : int list;
}

type cautomaton = {
  ca_name : string;
  ca_initial : int;
  ca_locs : cloc array;
  ca_out : cedge list array;
}

type t = {
  c_model : Model.network;
  c_nclocks : int;
  c_clock_names : string array;
  c_var_names : string array;
  c_var_bounds : (int * int) array;
  c_var_init : int array;
  c_chan_names : string array;
  c_chan_kinds : Model.chan_kind array;
  c_automata : cautomaton array;
  c_max_consts : int array;
}

exception Compile_error of string

let error fmt = Fmt.kstr (fun s -> raise (Compile_error s)) fmt

let index_table names =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace tbl name i) names;
  tbl

(* Normalise a clock atom to difference constraints over indices. *)
let dconstraints_of_atom lookup atom =
  let open Clockcons in
  let pair i j rel n =
    match rel with
    | Lt -> [ { dc_i = i; dc_j = j; dc_strict = true; dc_bound = n } ]
    | Le -> [ { dc_i = i; dc_j = j; dc_strict = false; dc_bound = n } ]
    | Eq ->
      [ { dc_i = i; dc_j = j; dc_strict = false; dc_bound = n };
        { dc_i = j; dc_j = i; dc_strict = false; dc_bound = -n } ]
    | Ge -> [ { dc_i = j; dc_j = i; dc_strict = false; dc_bound = -n } ]
    | Gt -> [ { dc_i = j; dc_j = i; dc_strict = true; dc_bound = -n } ]
  in
  match atom with
  | Simple (x, rel, n) -> pair (lookup x) 0 rel n
  | Diff (x, y, rel, n) -> pair (lookup x) (lookup y) rel n

let compile ?(extra_clocks = []) ?(clock_ceilings = []) net =
  (match Model.validate net with
   | [] -> ()
   | problems ->
     error "network %s is not well-formed: %s" net.Model.net_name
       (String.concat "; " problems));
  let clock_list = net.Model.net_clocks @ extra_clocks in
  let clock_names = Array.of_list ("0" :: clock_list) in
  let clock_tbl = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace clock_tbl name i) clock_names;
  let clock_idx x =
    match Hashtbl.find_opt clock_tbl x with
    | Some i -> i
    | None -> error "unknown clock %S" x
  in
  let var_names = Array.of_list (List.map fst net.Model.net_vars) in
  let var_tbl = index_table (Array.to_list var_names) in
  let var_idx v =
    match Hashtbl.find_opt var_tbl v with
    | Some i -> i
    | None -> error "unknown variable %S" v
  in
  let var_decls = Array.of_list (List.map snd net.Model.net_vars) in
  let var_bounds =
    Array.map (fun d -> (d.Model.var_min, d.Model.var_max)) var_decls
  in
  let var_init = Array.map (fun d -> d.Model.var_init) var_decls in
  let chan_names = Array.of_list (List.map fst net.Model.net_channels) in
  let chan_kinds = Array.of_list (List.map snd net.Model.net_channels) in
  let chan_tbl = index_table (Array.to_list chan_names) in
  let chan_idx c =
    match Hashtbl.find_opt chan_tbl c with
    | Some i -> i
    | None -> error "unknown channel %S" c
  in
  let nclocks = Array.length clock_names - 1 in
  let max_consts = Array.make (nclocks + 1) 0 in
  let compile_atoms atoms =
    List.iter
      (fun (x, n) ->
        let i = clock_idx x in
        if n > max_consts.(i) then max_consts.(i) <- n)
      (Clockcons.max_consts atoms);
    List.concat_map (dconstraints_of_atom clock_idx) atoms
  in
  let compile_automaton ai (a : Model.automaton) =
    let loc_names = List.map (fun l -> l.Model.loc_name) a.Model.aut_locations in
    let loc_tbl = index_table loc_names in
    let loc_idx l =
      match Hashtbl.find_opt loc_tbl l with
      | Some i -> i
      | None -> error "%s: unknown location %S" a.Model.aut_name l
    in
    let locs =
      Array.of_list
        (List.map
           (fun (l : Model.location) ->
             { cl_name = l.Model.loc_name;
               cl_kind = l.Model.loc_kind;
               cl_inv = compile_atoms l.Model.loc_inv;
               cl_free = [] })
           a.Model.aut_locations)
    in
    let out = Array.make (Array.length locs) [] in
    let compile_edge ei (e : Model.edge) =
      let sync =
        match e.Model.edge_sync with
        | Model.Tau -> CTau
        | Model.Send c -> CSend (chan_idx c)
        | Model.Recv c -> CRecv (chan_idx c)
      in
      { ce_aut = ai;
        ce_index = ei;
        ce_src = loc_idx e.Model.edge_src;
        ce_dst = loc_idx e.Model.edge_dst;
        ce_guard = compile_atoms e.Model.edge_guard;
        ce_pred = Expr.compile_pred ~index:var_idx e.Model.edge_pred;
        ce_sync = sync;
        ce_resets = List.map clock_idx e.Model.edge_resets;
        ce_updates =
          List.map
            (fun (v, rhs) -> (var_idx v, Expr.compile_expr ~index:var_idx rhs))
            e.Model.edge_updates }
    in
    List.iteri
      (fun ei e ->
        let ce = compile_edge ei e in
        out.(ce.ce_src) <- out.(ce.ce_src) @ [ ce ])
      a.Model.aut_edges;
    { ca_name = a.Model.aut_name;
      ca_initial = loc_idx a.Model.aut_initial;
      ca_locs = locs;
      ca_out = out }
  in
  let automata =
    Array.of_list (List.mapi compile_automaton net.Model.net_automata)
  in
  (* Clock-activity analysis (Daws-Yovine).  A clock used by exactly one
     automaton is inactive at a location when every path from it resets
     the clock before any guard or invariant reads it; such clocks can be
     freed by the explorer without affecting reachability. *)
  let clocks_of_dcs dcs =
    List.concat_map
      (fun dc ->
        (if dc.dc_i <> 0 then [ dc.dc_i ] else [])
        @ if dc.dc_j <> 0 then [ dc.dc_j ] else [])
      dcs
  in
  let users = Array.make (nclocks + 1) [] in
  let note_user ai i =
    if i <> 0 && not (List.mem ai users.(i)) then users.(i) <- ai :: users.(i)
  in
  Array.iteri
    (fun ai a ->
      Array.iter
        (fun l -> List.iter (note_user ai) (clocks_of_dcs l.cl_inv))
        a.ca_locs;
      Array.iter
        (List.iter (fun ce ->
             List.iter (note_user ai) (clocks_of_dcs ce.ce_guard);
             List.iter (note_user ai) ce.ce_resets))
        a.ca_out)
    automata;
  let analysed =
    Array.mapi
      (fun ai a ->
        let owned = ref [] in
        for i = 1 to nclocks do
          if users.(i) = [ ai ] then owned := i :: !owned
        done;
        let owned = !owned in
        if owned = [] then a
        else begin
          let nlocs = Array.length a.ca_locs in
          let active = Array.make nlocs [] in
          let add l i =
            if List.mem i owned && not (List.mem i active.(l)) then begin
              active.(l) <- i :: active.(l);
              true
            end
            else false
          in
          Array.iteri
            (fun l cl -> List.iter (fun i -> ignore (add l i)) (clocks_of_dcs cl.cl_inv))
            a.ca_locs;
          let changed = ref true in
          while !changed do
            changed := false;
            Array.iteri
              (fun l edges ->
                List.iter
                  (fun ce ->
                    List.iter
                      (fun i -> if add l i then changed := true)
                      (clocks_of_dcs ce.ce_guard);
                    List.iter
                      (fun i ->
                        if (not (List.mem i ce.ce_resets)) && add l i then
                          changed := true)
                      active.(ce.ce_dst))
                  edges)
              a.ca_out
          done;
          let locs =
            Array.mapi
              (fun l cl ->
                { cl with
                  cl_free =
                    List.filter (fun i -> not (List.mem i active.(l))) owned })
              a.ca_locs
          in
          { a with ca_locs = locs }
        end)
      automata
  in
  let automata = analysed in
  List.iter
    (fun (x, ceiling) ->
      (match Clockcons.check_constant ("clock ceiling of " ^ x) ceiling with
       | Ok _ -> ()
       | Error msg -> error "%s" msg);
      let i = clock_idx x in
      if ceiling > max_consts.(i) then max_consts.(i) <- ceiling)
    clock_ceilings;
  { c_model = net;
    c_nclocks = nclocks;
    c_clock_names = clock_names;
    c_var_names = var_names;
    c_var_bounds = var_bounds;
    c_var_init = var_init;
    c_chan_names = chan_names;
    c_chan_kinds = chan_kinds;
    c_automata = automata;
    c_max_consts = max_consts }

let find_in_array name arr =
  let n = Array.length arr in
  let rec loop i =
    if i >= n then raise Not_found
    else if arr.(i) = name then i
    else loop (i + 1)
  in
  loop 0

let clock_index c name = find_in_array name c.c_clock_names
let var_index c name = find_in_array name c.c_var_names

let loc_index c ~aut name =
  let ai =
    find_in_array aut (Array.map (fun a -> a.ca_name) c.c_automata)
  in
  let a = c.c_automata.(ai) in
  let li = find_in_array name (Array.map (fun l -> l.cl_name) a.ca_locs) in
  (ai, li)

let apply_updates c vals updates =
  let next = Array.copy vals in
  let apply (vi, rhs) =
    let value = rhs next in
    let lo, hi = c.c_var_bounds.(vi) in
    if value < lo || value > hi then
      error "assignment %s := %d violates range [%d, %d]" c.c_var_names.(vi)
        value lo hi;
    next.(vi) <- value
  in
  List.iter apply updates;
  next

let describe_edge c ce =
  let a = c.c_automata.(ce.ce_aut) in
  let action =
    match ce.ce_sync with
    | CTau -> "tau"
    | CSend ch -> c.c_chan_names.(ch) ^ "!"
    | CRecv ch -> c.c_chan_names.(ch) ^ "?"
  in
  Fmt.str "%s: %s -> %s (%s)" a.ca_name a.ca_locs.(ce.ce_src).cl_name
    a.ca_locs.(ce.ce_dst).cl_name action
