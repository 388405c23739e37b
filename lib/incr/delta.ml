module C = Ta.Compiled
module E = Mc.Explorer

(* One recorded successor of an expanded state.  Movers are stored as
   (automaton, source location, position in the per-location out-edge
   table): [ce_index] numbers the automaton's whole edge list and
   shifts when an edit inserts an edge elsewhere, while the position
   within [ca_out.(aut).(src)] is stable exactly when the replay
   validity check (that very row unchanged) passes. *)
type succ = {
  s_movers : (int * int * int) array;
  s_chan : int;  (* synchronising channel index; -1 for internal moves *)
  s_locs : int array;
  s_vars : int array;
  s_mon : int;
  s_pre : int array;  (* successor zone before extrapolation *)
  s_post : int array;
      (* the same zone after extrapolation ([||] when extrapolation
         emptied it): when the edit leaves the extrapolation tables
         alone, replay admits this encoding verbatim instead of paying
         the per-successor extrapolation of [admit_pre] *)
}

type node = {
  n_locs : int array;
  n_vars : int array;
  n_mon : int;
  n_zone : int array;  (* the popped state's zone, post-extrapolation *)
  n_succs : succ array;
}

type graph = {
  g_version : int;
  g_query : string;  (* canonical query text *)
  g_net : string;    (* canonical network text the graph was recorded on *)
  g_dim : int;
  g_nodes : node array;
}

let version = 2
let magic = "PSVIG2\n"

let size g = Array.length g.g_nodes

(* The payload is pure data (ints, arrays, strings), so [Marshal] is
   safe; the magic line keeps foreign blobs out of [from_string], and
   the framing digest of [Store.Session] guards the bytes themselves. *)
let encode g = magic ^ Marshal.to_string g []

let decode s =
  let ml = String.length magic in
  if String.length s < ml || String.sub s 0 ml <> magic then
    Error "not a psv incremental graph"
  else
    match (Marshal.from_string s ml : graph) with
    | g when g.g_version = version -> Ok g
    | g -> Error (Printf.sprintf "graph version %d (this build reads %d)" g.g_version version)
    | exception _ -> Error "undecodable graph blob"

(* --- compiled-network diff ------------------------------------------- *)

(* [ce_model] is the edge's source AST — pure data, so structural
   equality is safe and covers the data guard and updates that exist
   only as closures in the compiled form.  The compiled fields compared
   alongside are all derivable from [ce_model] once declarations are
   fixed; comparing them too costs nothing and defends the invariant. *)
let edge_equal (a : C.cedge) (b : C.cedge) =
  a.C.ce_src = b.C.ce_src && a.C.ce_dst = b.C.ce_dst
  && a.C.ce_sync = b.C.ce_sync && a.C.ce_resets = b.C.ce_resets
  && a.C.ce_guard = b.C.ce_guard && a.C.ce_model = b.C.ce_model

let loc_equal (a : C.cloc) (b : C.cloc) =
  String.equal a.C.cl_name b.C.cl_name
  && a.C.cl_kind = b.C.cl_kind && a.C.cl_inv = b.C.cl_inv
  && a.C.cl_free = b.C.cl_free

let out_equal o1 o2 =
  List.length o1 = List.length o2 && List.for_all2 edge_equal o1 o2

type compat = {
  cp_changed : bool array;  (* per automaton: compiled form differs *)
  cp_loc_ok : bool array array;
      (* per (changed automaton, location): a state sitting at this
         location may be replayed — the location row (kind, invariant,
         activity), its out-edge table and every out-edge's target
         location are unchanged *)
}

type diff = Incompatible of string | Compatible of compat

let names_equal a b =
  Array.length a = Array.length b
  && Array.for_all Fun.id (Array.map2 String.equal a b)

let diff (oldc : C.t) (newc : C.t) =
  if oldc.C.c_clock_names <> newc.C.c_clock_names then
    Incompatible "clock declarations changed"
  else if
    oldc.C.c_var_names <> newc.C.c_var_names
    || oldc.C.c_var_bounds <> newc.C.c_var_bounds
    || oldc.C.c_var_init <> newc.C.c_var_init
  then Incompatible "variable declarations changed"
  else if
    oldc.C.c_chan_names <> newc.C.c_chan_names
    || oldc.C.c_chan_kinds <> newc.C.c_chan_kinds
  then Incompatible "channel declarations changed"
  else if
    not
      (names_equal
         (Array.map (fun (a : C.cautomaton) -> a.C.ca_name) oldc.C.c_automata)
         (Array.map (fun (a : C.cautomaton) -> a.C.ca_name) newc.C.c_automata))
  then Incompatible "automata added, removed or renamed"
  else begin
    let n = Array.length oldc.C.c_automata in
    let problem = ref None in
    let changed = Array.make n false in
    let loc_ok = Array.make n [||] in
    for ai = 0 to n - 1 do
      if !problem = None then begin
        let oa = oldc.C.c_automata.(ai) and na = newc.C.c_automata.(ai) in
        let nl = Array.length oa.C.ca_locs in
        if
          nl <> Array.length na.C.ca_locs
          || not
               (names_equal
                  (Array.map (fun (l : C.cloc) -> l.C.cl_name) oa.C.ca_locs)
                  (Array.map (fun (l : C.cloc) -> l.C.cl_name) na.C.ca_locs))
        then
          problem :=
            Some (Printf.sprintf "locations of %s changed" oa.C.ca_name)
        else begin
          (* Conservative fall-back the ISSUE mandates: an edit that
             introduces urgency reshapes delay closure globally. *)
          Array.iteri
            (fun li (ol : C.cloc) ->
              let nw = na.C.ca_locs.(li) in
              if
                ol.C.cl_kind = Ta.Model.Normal
                && nw.C.cl_kind <> Ta.Model.Normal
                && !problem = None
              then
                problem :=
                  Some
                    (Printf.sprintf "urgency added at %s.%s" na.C.ca_name
                       nw.C.cl_name))
            oa.C.ca_locs;
          let loc_diff = ref false in
          for li = 0 to nl - 1 do
            if
              (not (loc_equal oa.C.ca_locs.(li) na.C.ca_locs.(li)))
              || not (out_equal oa.C.ca_out.(li) na.C.ca_out.(li))
            then loc_diff := true
          done;
          if oa.C.ca_initial <> na.C.ca_initial || !loc_diff then begin
            changed.(ai) <- true;
            loc_ok.(ai) <-
              Array.init nl (fun li ->
                  loc_equal oa.C.ca_locs.(li) na.C.ca_locs.(li)
                  && out_equal oa.C.ca_out.(li) na.C.ca_out.(li)
                  && List.for_all
                       (fun (e : C.cedge) ->
                         loc_equal oa.C.ca_locs.(e.C.ce_dst)
                           na.C.ca_locs.(e.C.ce_dst))
                       na.C.ca_out.(li))
          end
        end
      end
    done;
    match !problem with
    | Some msg -> Incompatible msg
    | None -> Compatible { cp_changed = changed; cp_loc_ok = loc_ok }
  end

(* A recorded node is replayable iff every changed automaton sits, in
   the popped state, at a location whose row the edit left alone. *)
let node_valid compat locs =
  let ok = ref true in
  Array.iteri
    (fun ai ch ->
      if ch && not compat.cp_loc_ok.(ai).(locs.(ai)) then ok := false)
    compat.cp_changed;
  !ok

(* --- recording -------------------------------------------------------- *)

let pos_of comp ai (ce : C.cedge) =
  let row = comp.C.c_automata.(ai).C.ca_out.(ce.C.ce_src) in
  let rec go i = function
    | [] -> invalid_arg "Incr.Delta: candidate edge not in its out table"
    | e :: tl -> if e == ce then i else go (i + 1) tl
  in
  go 0 row

let chan_int = function None -> -1 | Some c -> c

(* The recording expansion: candidates + [fire_pre], byte-equivalent to
   the explorer's inline path, with every live firing remembered. *)
let record_expand t comp nodes pool st =
  let succs = ref [] in
  let pairs =
    List.map
      (fun cd ->
        match E.fire_pre t pool st cd with
        | E.Fired_dead -> (cd, None)
        | E.Fired_live { fl_state; fl_locs; fl_vars; fl_mon; fl_pre } ->
          let movers =
            E.movers cd
            |> List.map (fun (ai, ce) -> (ai, ce.C.ce_src, pos_of comp ai ce))
            |> Array.of_list
          in
          let post =
            match fl_state with
            | Some st' -> Zone.Dbm.to_ints st'.E.st_zone
            | None -> [||]
          in
          succs :=
            { s_movers = movers;
              s_chan = chan_int (E.candidate_chan cd);
              s_locs = fl_locs;
              s_vars = fl_vars;
              s_mon = fl_mon;
              s_pre = fl_pre;
              s_post = post }
            :: !succs;
          (cd, fl_state))
      (E.candidates t st)
  in
  nodes :=
    { n_locs = Array.copy st.E.st_locs;
      n_vars = Array.copy st.E.st_vars;
      n_mon = st.E.st_mon;
      n_zone = Zone.Dbm.to_ints st.E.st_zone;
      n_succs = Array.of_list (List.rev !succs) }
    :: !nodes;
  pairs

(* --- replay ----------------------------------------------------------- *)

(* Memo index over the recorded nodes, resolved by full discrete + zone
   comparison.  The bucket key mixes the zone encoding into the
   discrete hash: zone-dense models have thousands of zones per
   discrete state, and bucketing on the discrete part alone makes every
   lookup scan them all.  The zone keys on the {e current} run's
   post-extrapolation encoding, so a state whose zone drifted
   (extrapolation constants moved with an edited constant) simply
   misses and fires for real — never replays stale data. *)
let node_hash locs vars mon zone_ints =
  let h = E.hash_discrete locs vars mon in
  Array.fold_left (fun acc v -> (acc * 31) + v + 1) h zone_ints

let index g =
  let tbl = Hashtbl.create (max 64 (2 * Array.length g.g_nodes)) in
  Array.iter
    (fun nd ->
      Hashtbl.add tbl (node_hash nd.n_locs nd.n_vars nd.n_mon nd.n_zone) nd)
    g.g_nodes;
  tbl

let lookup tbl (st : E.state) zone_ints =
  let h = node_hash st.E.st_locs st.E.st_vars st.E.st_mon zone_ints in
  List.find_opt
    (fun nd ->
      nd.n_mon = st.E.st_mon && nd.n_locs = st.E.st_locs
      && nd.n_vars = st.E.st_vars && nd.n_zone = zone_ints)
    (Hashtbl.find_all tbl h)

(* [fast] asserts the old and new explorers extrapolate identically;
   recorded post zones then admit verbatim ([E.admit_post]), skipping
   the per-successor extrapolation and re-closure of [E.admit_pre]. *)
let replay_expand t comp compat ~fast tbl nodes replayed expanded pool st =
  let zone_ints = Zone.Dbm.to_ints st.E.st_zone in
  match lookup tbl st zone_ints with
  | Some nd when node_valid compat nd.n_locs ->
    incr replayed;
    nodes := nd :: !nodes;
    Array.to_list nd.n_succs
    |> List.map (fun s ->
           let movers =
             Array.to_list s.s_movers
             |> List.map (fun (ai, src, pos) ->
                    (ai, List.nth comp.C.c_automata.(ai).C.ca_out.(src) pos))
           in
           let cd =
             E.candidate ~movers
               ~chan:(if s.s_chan < 0 then None else Some s.s_chan)
           in
           ( cd,
             if fast then
               E.admit_post t ~locs:(Array.copy s.s_locs) ~vars:s.s_vars
                 ~mon:s.s_mon ~post:s.s_post
             else
               E.admit_pre t ~locs:(Array.copy s.s_locs) ~vars:s.s_vars
                 ~mon:s.s_mon ~pre:s.s_pre ))
  | _ ->
    incr expanded;
    record_expand t comp nodes pool st

(* --- the query engine ------------------------------------------------- *)

(* Mirrors [Mc.Query.eval]'s four branches on the sequential ([jobs=1])
   path, with the expansion hook threaded through; outcome ladders are
   copied verbatim so results are byte-identical. *)

let make_explorer ?limit net q =
  match q with
  | Mc.Query.Exists_eventually _ | Mc.Query.Always _ -> E.make ?limit net
  | Mc.Query.Sup_delay { trigger; response; ceiling } ->
    let monitor =
      Mc.Monitor.delay ~trigger ~response ~clock:Mc.Query.delay_monitor_clock
        ~ceiling ()
    in
    E.make ?limit ~monitor net
  | Mc.Query.Bounded_response { trigger; response; bound } ->
    let monitor =
      Mc.Monitor.delay ~trigger ~response ~clock:Mc.Query.delay_monitor_clock
        ~ceiling:bound ()
    in
    E.make ?limit ~monitor net

let run_query ?ctl t q ~expand =
  match q with
  | Mc.Query.Exists_eventually p ->
    let r = E.reachable ~expand ?ctl t (Mc.Query.compile_pred t p) in
    let outcome =
      match r.E.r_trace, r.E.r_interrupt with
      | Some _, _ -> Mc.Query.Holds
      | None, Some reason -> Mc.Query.Unknown (reason, None)
      | None, None -> Mc.Query.Fails None
    in
    { Mc.Query.res_outcome = outcome; res_stats = r.E.r_stats }
  | Mc.Query.Always p ->
    let pred = Mc.Query.compile_pred t p in
    let r = E.reachable ~expand ?ctl t (fun st -> not (pred st)) in
    let outcome =
      match r.E.r_trace, r.E.r_interrupt with
      | Some trace, _ -> Mc.Query.Fails (Some trace)
      | None, Some reason -> Mc.Query.Unknown (reason, None)
      | None, None -> Mc.Query.Holds
    in
    { Mc.Query.res_outcome = outcome; res_stats = r.E.r_stats }
  | Mc.Query.Sup_delay _ ->
    let o =
      E.sup_clock ~expand ?ctl t
        ~pred:(E.mon_in t "Waiting")
        ~clock:Mc.Query.delay_monitor_clock
    in
    let outcome =
      match o.E.so_interrupt with
      | Some reason -> Mc.Query.Unknown (reason, Some o.E.so_sup)
      | None -> Mc.Query.Sup o.E.so_sup
    in
    { Mc.Query.res_outcome = outcome; res_stats = o.E.so_stats }
  | Mc.Query.Bounded_response { bound; _ } ->
    let o =
      E.sup_clock ~expand ?ctl t
        ~pred:(E.mon_in t "Waiting")
        ~clock:Mc.Query.delay_monitor_clock
    in
    let outcome =
      match o.E.so_interrupt, o.E.so_sup with
      | None, E.Sup_unreached -> Mc.Query.Holds
      | None, E.Sup (v, _) ->
        if v <= bound then Mc.Query.Holds else Mc.Query.Fails None
      | None, E.Sup_exceeds _ -> Mc.Query.Fails None
      | Some _, E.Sup (v, _) when v > bound -> Mc.Query.Fails None
      | Some _, E.Sup_exceeds _ -> Mc.Query.Fails None
      | Some reason, partial -> Mc.Query.Unknown (reason, Some partial)
    in
    { Mc.Query.res_outcome = outcome; res_stats = o.E.so_stats }

type run = {
  dr_result : Mc.Query.result;
  dr_graph : graph;
  dr_replayed : int;
  dr_expanded : int;
}

let finish net q comp nodes result ~replayed ~expanded =
  { dr_result = result;
    dr_graph =
      { g_version = version;
        g_query = Mc.Query.to_string q;
        g_net = Xta.Print.to_string net;
        g_dim = comp.C.c_nclocks + 1;
        g_nodes = Array.of_list (List.rev !nodes) };
    dr_replayed = replayed;
    dr_expanded = expanded }

let record ?ctl ?limit net q =
  let t = make_explorer ?limit net q in
  let comp = E.compiled t in
  let nodes = ref [] in
  let result = run_query ?ctl t q ~expand:(record_expand t comp nodes) in
  finish net q comp nodes result ~replayed:0 ~expanded:(List.length !nodes)

let replay ?ctl ?limit ~old_net ~graph net q =
  let qtext = Mc.Query.to_string q in
  if not (String.equal graph.g_query qtext) then
    Error "graph records a different query"
  else if not (String.equal graph.g_net (Xta.Print.to_string old_net)) then
    Error "graph does not match the previous network"
  else
    let t = make_explorer ?limit net q in
    let t_old = make_explorer ?limit old_net q in
    match diff (E.compiled t_old) (E.compiled t) with
    | Incompatible reason -> Error reason
    | Compatible compat ->
      let comp = E.compiled t in
      if graph.g_dim <> comp.C.c_nclocks + 1 then
        Error "zone dimension changed"
      else begin
        let tbl = index graph in
        let nodes = ref [] and replayed = ref 0 and expanded = ref 0 in
        let fast = E.same_extrapolation t_old t in
        let expand =
          replay_expand t comp compat ~fast tbl nodes replayed expanded
        in
        let result = run_query ?ctl t q ~expand in
        Ok
          (finish net q comp nodes result ~replayed:!replayed
             ~expanded:!expanded)
      end
