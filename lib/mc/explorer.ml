open Ta

type t = {
  comp : Compiled.t;
  monitor : Monitor.t;
  mon_clock_index : (string * int) list;  (* monitor clock name -> DBM index *)
  mon_ceiling : (string * int) list;
  k : int array;  (* ExtraM constants, per DBM clock index *)
  tight : bool;
  limit : int;
  reduce : bool;
  (* per automaton, per location: tau edges, and send/receive edges
     indexed by channel -- precomputed so candidate enumeration is a
     table lookup *)
  taus : Compiled.cedge array array array;
  sends : Compiled.cedge array array array array;
  recvs : Compiled.cedge array array array array;
  (* per monitor state: DBM indices of the monitor clocks inactive there
     (freed after every fire) -- precomputed so the hot path neither
     calls [mon_active] nor searches association lists *)
  mon_free : int list array;
  (* per channel, per monitor state: the monitor step on that channel,
     with reset clocks already resolved to DBM indices *)
  mon_step : (int * int list) option array array;
}

type state = {
  st_locs : int array;
  st_vars : int array;
  st_mon : int;
  st_zone : Zone.Dbm.t;
}

type stats = {
  visited : int;
  stored : int;
  frontier : int;
}

let default_limit = 2_000_000

(* A copy of per-clock constants; [tight] raises every real clock's to
   the largest of the compiled maximal constants. *)
let tightened ~tight comp consts =
  let c = Array.copy consts in
  if tight then begin
    let hi = Array.fold_left max 0 comp.Compiled.c_max_consts in
    for i = 1 to Array.length c - 1 do
      c.(i) <- hi
    done
  end;
  c

let make ?(monitor = Monitor.trivial) ?tight ?(limit = default_limit)
    ?(reduce = true) net =
  let mon_clocks = List.map fst monitor.Monitor.mon_clocks in
  let comp =
    Compiled.compile ~extra_clocks:mon_clocks
      ~clock_ceilings:monitor.Monitor.mon_clocks net
  in
  let tight = match tight with Some b -> b | None -> false in
  let k = tightened ~tight comp comp.Compiled.c_max_consts in
  let mon_clock_index =
    List.map (fun c -> (c, Compiled.clock_index comp c)) mon_clocks
  in
  let nchans = Array.length comp.Compiled.c_chan_names in
  let table select =
    Array.map
      (fun a ->
        Array.map
          (fun edges ->
            let by_chan = Array.make nchans [] in
            (* cons-accumulate (edges are in declaration order, so reverse
               once per channel), then freeze as arrays *)
            List.iter
              (fun ce ->
                match select ce.Compiled.ce_sync with
                | Some ch -> by_chan.(ch) <- ce :: by_chan.(ch)
                | None -> ())
              edges;
            Array.map (fun l -> Array.of_list (List.rev l)) by_chan)
          a.Compiled.ca_out)
      comp.Compiled.c_automata
  in
  let taus =
    Array.map
      (fun a ->
        Array.map
          (fun edges ->
            Array.of_list
              (List.filter
                 (fun ce -> ce.Compiled.ce_sync = Compiled.CTau)
                 edges))
          a.Compiled.ca_out)
      comp.Compiled.c_automata
  in
  let sends =
    table (function Compiled.CSend ch -> Some ch | _ -> None)
  in
  let recvs =
    table (function Compiled.CRecv ch -> Some ch | _ -> None)
  in
  let nmonstates = Array.length monitor.Monitor.mon_states in
  let mon_free =
    Array.init nmonstates (fun s ->
        let active = monitor.Monitor.mon_active s in
        List.filter_map
          (fun (name, i) ->
            if List.mem name active then None else Some i)
          mon_clock_index)
  in
  let mon_step =
    Array.init nchans (fun ch ->
        let chan = comp.Compiled.c_chan_names.(ch) in
        Array.init nmonstates (fun s ->
            match Monitor.step monitor s chan with
            | Some (dst, resets) ->
              Some
                (dst,
                 List.map (fun c -> List.assoc c mon_clock_index) resets)
            | None -> None))
  in
  { comp;
    monitor;
    mon_clock_index;
    mon_ceiling = monitor.Monitor.mon_clocks;
    k;
    tight;
    limit;
    reduce;
    taus;
    sends;
    recvs;
    mon_free;
    mon_step }

let compiled t = t.comp

let fresh_pool t = Zone.Dbm.Pool.create (t.comp.Compiled.c_nclocks + 1)

(* The largest constant a stored zone is extrapolated against, monitor
   ceilings included: it sizes the lanes of the subsumption keys.  (The
   compiled lower/upper constants never exceed [k] clock by clock.) *)
let max_const t =
  let top = Array.fold_left max 0 in
  List.fold_left
    (fun m (_, c) -> max m c)
    (top t.k)
    t.mon_ceiling

(* DBM index and exact-reporting ceiling of a (typically monitor) clock,
   as used by sup queries. *)
let monitor_clock_info t clock =
  let ci =
    match List.assoc_opt clock t.mon_clock_index with
    | Some i -> i
    | None -> Compiled.clock_index t.comp clock
  in
  let ceiling =
    match List.assoc_opt clock t.mon_ceiling with
    | Some c -> c
    | None -> t.k.(ci)
  in
  (ci, ceiling)

let at t ~aut ~loc =
  let ai, li = Compiled.loc_index t.comp ~aut loc in
  fun st -> st.st_locs.(ai) = li

let var_value t name =
  let vi = Compiled.var_index t.comp name in
  fun st -> st.st_vars.(vi)

let mon_in t name =
  let si = Monitor.state_index t.monitor name in
  fun st -> st.st_mon = si

(* --- zone plumbing --------------------------------------------------- *)

(* The walks below are top-level recursions and loops, not [List.iter]
   over a local closure: they run on every fired candidate, and a
   closure would be allocated per call. *)

let bound_of_dc (dc : Compiled.dconstraint) =
  if dc.Compiled.dc_strict then Zone.Bound.lt dc.Compiled.dc_bound
  else Zone.Bound.le dc.Compiled.dc_bound

let rec apply_dconstraints z = function
  | [] -> ()
  | (dc : Compiled.dconstraint) :: rest ->
    Zone.Dbm.constrain z dc.Compiled.dc_i dc.Compiled.dc_j (bound_of_dc dc);
    apply_dconstraints z rest

let apply_invariants comp locs z =
  let auts = comp.Compiled.c_automata in
  for ai = 0 to Array.length locs - 1 do
    apply_dconstraints z auts.(ai).Compiled.ca_locs.(locs.(ai)).Compiled.cl_inv
  done

let rec reset_clocks z = function
  | [] -> ()
  | c :: rest ->
    Zone.Dbm.reset z c;
    reset_clocks z rest

let rec free_clocks z = function
  | [] -> ()
  | c :: rest ->
    Zone.Dbm.free z c;
    free_clocks z rest

let loc_kind comp ai li =
  comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_kind

(* Whether some automaton sits in a location of a kind [pick] accepts. *)
let rec occupied comp pick locs ai =
  ai < Array.length locs
  && (pick (loc_kind comp ai locs.(ai)) || occupied comp pick locs (ai + 1))

let committed = function Model.Committed -> true | _ -> false
let no_delay = function Model.Urgent | Model.Committed -> true | _ -> false
let no_delay_present comp locs = occupied comp no_delay locs 0

(* Clocks the monitor declares inactive carry no information; freeing them
   merges zones that differ only in their value. *)
let free_inactive_monitor_clocks t mon_state z =
  free_clocks z t.mon_free.(mon_state)

(* Activity reduction: free the clocks that are dead at an automaton's
   current location (see Compiled.cl_free). *)
let free_inactive_automaton_clocks t ai li z =
  if t.reduce then
    free_clocks z
      t.comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_free

(* Target invariants, then the delay closure under them unless an urgent
   or committed location stops time. *)
let settle comp locs z =
  apply_invariants comp locs z;
  if not (Zone.Dbm.is_empty z || no_delay_present comp locs) then begin
    Zone.Dbm.up z;
    apply_invariants comp locs z
  end

let extrapolate t z = Zone.Dbm.extrapolate z t.k

(* --- transition firing ------------------------------------------------ *)

(* A candidate discrete transition: the moving edges in update order
   (sender first), plus the synchronising channel (by index) if any. *)
type candidate = {
  cd_movers : (int * Compiled.cedge) list;
  cd_chan : int option;
}

let describe t movers =
  String.concat " | "
    (List.map (fun (_, ce) -> Compiled.describe_edge t.comp ce) movers)

(* A stored symbolic state.  Trace information (parent id, movers) lives
   in a side table indexed by id, so a dead entry pins no zone and no
   trace data once it has drained from the queue.  [e_node] is the node
   of its discrete state, whose successor table its expansion reads. *)
type entry = {
  e_id : int;
  e_state : state;
  e_node : pw_node;
  mutable e_dead : bool;
}

(* One discrete state (locs, vars, mon) of the passed/waiting list, with
   its live zones.  Nodes hang off a hash-keyed table; the hash is
   computed once per state and cached in the node ([pw_hash]), so
   subsumption probes compare a machine integer before touching the
   discrete vectors.  Collisions are resolved by structural comparison
   here.

   Entries occupy the slots [pw_live.(0 .. pw_len-1)] in insertion
   order, and [pw_keys] holds their {!Zone.Dbm.Key} keys, [Key.len]
   ints per slot at the same index, so a subsumption scan reads one flat
   int array and dereferences an entry only when its key passes.  A
   killed entry leaves a hole until the node is compacted ([pw_holes]
   counts them).  Every full block of {!Passed.block} slots has two
   summaries, [Key.len] ints per block in [pw_bmax] and [pw_bmin]: the
   lane-wise max and min of the keys of its live entries.

   [pw_succ] is the node's successor table, built when the node is
   first expanded (see [succ_table]). *)
and pw_node = {
  pw_hash : int;
  pw_locs : int array;
  pw_vars : int array;
  pw_mon : int;
  mutable pw_live : entry array;
  mutable pw_keys : int array;
  mutable pw_bmax : int array;
  mutable pw_bmin : int array;
  mutable pw_len : int;  (* slots in use, holes included *)
  mutable pw_holes : int;
  mutable pw_succ : desc array option;
}

(* One candidate of a discrete state, with the discrete half of firing
   it: everything a successor needs that does not depend on the zone.
   The half is filled by the first firing whose guarded zone is
   non-empty, the point where [fire] has always applied the updates, so
   a range violation raises exactly when it did without the table. *)
and desc = {
  d_cand : candidate;
  mutable d_half : half option;
}

and half = {
  h_locs : int array;  (* target locations; each successor gets a copy *)
  h_vars : int array option;
      (* the target valuation when some mover updates, and a successor
         gets a copy of it; [None] when none does, and a successor
         shares its source's valuation, as it always has (a
         checkpoint's bytes depend on that sharing) *)
  h_mon : int;
  h_hash : int;  (* [hash_discrete] of the target *)
  h_resets : int list;  (* the movers' resets in order, then the monitor's *)
  h_frees : int list;
      (* the clocks the target's monitor state leaves inactive, then the
         movers' dead clocks *)
  h_inv : Compiled.dconstraint list;  (* every automaton's target invariant *)
  h_no_delay : bool;  (* an urgent or committed target location *)
  mutable h_node : pw_node;
      (* the target's node, looked up by the search at the half's first
         successor; [no_node] until then *)
}

(* The node of no discrete state: the target of a half not yet resolved,
   and the node of the dead entry that fills empty slots. *)
let no_node =
  { pw_hash = -1; pw_locs = [||]; pw_vars = [||]; pw_mon = -1; pw_live = [||];
    pw_keys = [||]; pw_bmax = [||]; pw_bmin = [||]; pw_len = 0; pw_holes = 0;
    pw_succ = None }

let hash_discrete locs vars mon =
  let h = ref (mon + 0x9e3779b9) in
  for i = 0 to Array.length locs - 1 do
    h := (!h lxor locs.(i)) * 0x01000193
  done;
  for i = 0 to Array.length vars - 1 do
    h := (!h lxor vars.(i)) * 0x01000193
  done;
  !h land max_int

let rec apply_guards z = function
  | [] -> ()
  | (_, ce) :: rest ->
    apply_dconstraints z ce.Compiled.ce_guard;
    apply_guards z rest

(* Whether every guard constraint, taken on its own, meets [z].  One
   that does not empties the guarded zone, so the firing dies without a
   copy; when all meet it, their conjunction may still be empty. *)
let rec meets z = function
  | [] -> true
  | (dc : Compiled.dconstraint) :: rest ->
    Zone.Dbm.satisfiable z dc.Compiled.dc_i dc.Compiled.dc_j (bound_of_dc dc)
    && meets z rest

let rec guards_meet z = function
  | [] -> true
  | (_, ce) :: rest -> meets z ce.Compiled.ce_guard && guards_meet z rest

(* Move each mover to its target in [locs] and reset its clocks; the
   result is the valuation after the movers' updates, in order ([vals]
   itself while they update nothing). *)
let rec retarget comp locs z vals = function
  | [] -> vals
  | (ai, ce) :: rest ->
    locs.(ai) <- ce.Compiled.ce_dst;
    reset_clocks z ce.Compiled.ce_resets;
    let vals =
      if ce.Compiled.ce_updates = [] then vals
      else Compiled.apply_updates comp vals ce.Compiled.ce_updates
    in
    retarget comp locs z vals rest

(* The discrete half of firing [cd] from [st]'s discrete state: the
   target locations, valuation, monitor state and hash, and the zone
   program -- resets, frees, target invariants, whether time may pass --
   in the order the firing applies them.  Runs once per descriptor, so
   it builds lists freely. *)
let half t st cd =
  let comp = t.comp in
  let locs = Array.copy st.st_locs in
  let vars = ref st.st_vars in
  List.iter
    (fun (ai, ce) ->
      locs.(ai) <- ce.Compiled.ce_dst;
      if ce.Compiled.ce_updates <> [] then
        vars := Compiled.apply_updates comp !vars ce.Compiled.ce_updates)
    cd.cd_movers;
  let mon, mon_resets =
    match cd.cd_chan with
    | None -> (st.st_mon, [])
    | Some ch -> (
      match t.mon_step.(ch).(st.st_mon) with
      | Some step -> step
      | None -> (st.st_mon, []))
  in
  let dead (ai, ce) =
    if t.reduce then
      comp.Compiled.c_automata.(ai).Compiled.ca_locs.(ce.Compiled.ce_dst)
        .Compiled.cl_free
    else []
  in
  { h_locs = locs;
    h_vars = (if !vars == st.st_vars then None else Some !vars);
    h_mon = mon;
    h_hash = hash_discrete locs !vars mon;
    h_resets =
      List.concat_map (fun (_, ce) -> ce.Compiled.ce_resets) cd.cd_movers
      @ mon_resets;
    h_frees = t.mon_free.(mon) @ List.concat_map dead cd.cd_movers;
    h_inv =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun ai li ->
                comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li)
                  .Compiled.cl_inv)
              locs));
    h_no_delay = no_delay_present comp locs;
    h_node = no_node }

let desc cd = { d_cand = cd; d_half = None }

(* The zone half of firing descriptor [d] from [st]: guards, resets,
   frees, target invariants and delay closure, everything but the
   extrapolation.  The zone comes from [pool] and goes back to it when
   it empties -- in a typical exploration most candidates die here, so
   this removes the dominant allocation; one whose guard misses the
   source zone outright dies before the copy. *)
let advance t pool st d =
  let cd = d.d_cand in
  if not (guards_meet st.st_zone cd.cd_movers) then None
  else begin
    let z = Zone.Dbm.Pool.copy pool st.st_zone in
    apply_guards z cd.cd_movers;
    if Zone.Dbm.is_empty z then begin
      Zone.Dbm.Pool.release pool z;
      None
    end
    else begin
      let h =
        match d.d_half with
        | Some h -> h
        | None ->
          let h = half t st cd in
          d.d_half <- Some h;
          h
      in
      reset_clocks z h.h_resets;
      free_clocks z h.h_frees;
      apply_dconstraints z h.h_inv;
      if not (Zone.Dbm.is_empty z || h.h_no_delay) then begin
        Zone.Dbm.up z;
        apply_dconstraints z h.h_inv
      end;
      if Zone.Dbm.is_empty z then begin
        Zone.Dbm.Pool.release pool z;
        None
      end
      else
        Some
          { st_locs = Array.copy h.h_locs;
            st_vars =
              (match h.h_vars with
               | Some vars -> Array.copy vars
               | None -> st.st_vars);
            st_mon = h.h_mon;
            st_zone = z }
    end
  end

let extrapolated t pool = function
  | None -> None
  | Some s as live ->
    extrapolate t s.st_zone;
    if Zone.Dbm.is_empty s.st_zone then begin
      Zone.Dbm.Pool.release pool s.st_zone;
      None
    end
    else live

(* The search fires the descriptors of its nodes' tables; [fire] is the
   same firing through a fresh descriptor. *)
let fire t pool st cd = extrapolated t pool (advance t pool st (desc cd))

(* [fire_pre] is [fire] with the successor zone additionally exposed as it
   stood just {e before} extrapolation.  Everything up to that point
   depends only on the model structure, never on the extrapolation
   constants, so [admit_pre] re-applies the {e current} extrapolation to
   a recorded zone.  Emptiness is decided before extrapolation (widening
   cannot empty a non-empty canonical zone), so [Fired_dead] is
   extrapolation-independent too. *)
type fired =
  | Fired_dead
  | Fired_live of {
      fl_state : state option;
      fl_locs : int array;
      fl_vars : int array;
      fl_mon : int;
      fl_pre : int array;
    }

let fire_pre t pool st cd =
  match advance t pool st (desc cd) with
  | None -> Fired_dead
  | Some s as live ->
    let fl_pre = Zone.Dbm.to_ints s.st_zone in
    Fired_live
      { fl_state = extrapolated t pool live; fl_locs = s.st_locs;
        fl_vars = s.st_vars; fl_mon = s.st_mon; fl_pre }

(* Replay counterpart of [fire_pre]: rebuild a recorded successor from its
   pre-extrapolation zone and finish with {e this} explorer's
   extrapolation, so the state comes out exactly as [fire] on the current
   model would produce it. *)
let admit_pre t ~locs ~vars ~mon ~pre =
  let z = Zone.Dbm.of_ints ~dim:(t.comp.Compiled.c_nclocks + 1) pre in
  extrapolate t z;
  if Zone.Dbm.is_empty z then None
  else Some { st_locs = locs; st_vars = vars; st_mon = mon; st_zone = z }

(* --- transition enumeration ------------------------------------------ *)

(* With a committed location occupied, only candidates that move out of
   one may fire. *)
let rec leaves_committed comp = function
  | [] -> false
  | (ai, ce) :: rest ->
    committed (loc_kind comp ai ce.Compiled.ce_src)
    || leaves_committed comp rest

let push comp com acc movers chan =
  if com && not (leaves_committed comp movers) then acc
  else { cd_movers = movers; cd_chan = chan } :: acc

(* A broadcast's receiver combinations in lexicographic order (the first
   automaton's choice most significant), [sender] first in each. *)
let rec push_combos comp com acc sender chan picked = function
  | [] -> push comp com acc (sender :: List.rev picked) chan
  | choices :: rest -> push_choices comp com acc sender chan picked rest choices

and push_choices comp com acc sender chan picked rest = function
  | [] -> acc
  | c :: cs ->
    let acc = push_combos comp com acc sender chan (c :: picked) rest in
    push_choices comp com acc sender chan picked rest cs

(* The enumeration order: tau edges by automaton, then per channel each
   enabled sender (automata ascending, an automaton's edges last
   declared first) with every receiver choice -- a binary channel's
   receivers in the senders' order, a broadcast's combinations above,
   over each other automaton's enabled edges in declaration order. *)
let candidates t st =
  let comp = t.comp and locs = st.st_locs and vars = st.st_vars in
  let nauts = Array.length comp.Compiled.c_automata in
  let com = occupied comp committed locs 0 in
  let acc = ref [] in
  for ai = 0 to nauts - 1 do
    let es = t.taus.(ai).(locs.(ai)) in
    for x = 0 to Array.length es - 1 do
      let ce = es.(x) in
      if ce.Compiled.ce_pred vars then
        acc := push comp com !acc [ (ai, ce) ] None
    done
  done;
  for ch = 0 to Array.length comp.Compiled.c_chan_kinds - 1 do
    let binary = comp.Compiled.c_chan_kinds.(ch) = Model.Binary in
    for sa = 0 to nauts - 1 do
      let ses = t.sends.(sa).(locs.(sa)).(ch) in
      for x = Array.length ses - 1 downto 0 do
        let se = ses.(x) in
        if se.Compiled.ce_pred vars then
          if binary then
            for ra = 0 to nauts - 1 do
              if ra <> sa then begin
                let res = t.recvs.(ra).(locs.(ra)).(ch) in
                for y = Array.length res - 1 downto 0 do
                  let re = res.(y) in
                  if re.Compiled.ce_pred vars then
                    acc := push comp com !acc [ (sa, se); (ra, re) ] (Some ch)
                done
              end
            done
          else begin
            let choices = ref [] in
            for ra = nauts - 1 downto 0 do
              if ra <> sa then begin
                let res = t.recvs.(ra).(locs.(ra)).(ch) and edges = ref [] in
                for y = Array.length res - 1 downto 0 do
                  let re = res.(y) in
                  if re.Compiled.ce_pred vars then edges := (ra, re) :: !edges
                done;
                if !edges <> [] then choices := !edges :: !choices
              end
            done;
            acc := push_combos comp com !acc (sa, se) (Some ch) [] !choices
          end
      done
    done
  done;
  List.rev !acc

(* The successor table of [e]'s node: one descriptor per candidate, in
   [candidates]' order, built at the node's first expansion.  Every
   later zone of the node fires the same descriptors. *)
let succ_table t e =
  let n = e.e_node in
  match n.pw_succ with
  | Some table -> table
  | None ->
    let table = Array.of_list (List.map desc (candidates t e.e_state)) in
    n.pw_succ <- Some table;
    table

(* --- passed/waiting store ---------------------------------------------- *)

module Passed = struct
  type nonrec entry = entry
  type node = pw_node

  let entry_id e = e.e_id
  let entry_dead e = e.e_dead

  let block = 8

  let node ~hash st =
    { pw_hash = hash; pw_locs = st.st_locs; pw_vars = st.st_vars;
      pw_mon = st.st_mon; pw_live = [||]; pw_keys = [||]; pw_bmax = [||];
      pw_bmin = [||]; pw_len = 0; pw_holes = 0; pw_succ = None }

  (* A slot holds a dead entry exactly when it is a hole. *)
  let live n =
    let acc = ref [] in
    for i = n.pw_len - 1 downto 0 do
      let e = n.pw_live.(i) in
      if not e.e_dead then acc := e :: !acc
    done;
    !acc

  let slots n = n.pw_len

  (* Per-search scratch: the dedup mode, the key layout, the newcomer's
     key, the indices of the entries it covers, and the dead entry that
     fills holes and unused slots, so a slot never pins a killed entry or
     its zone.  [offer] and [slots] are the zone on offer and the node's
     entries during an [add]; the key scan's callbacks read them, so
     they are built once per search, not per offer. *)
  type t = {
    subsume : bool;
    pool : Zone.Dbm.Pool.t;
    fmt : Zone.Dbm.Key.t;
    klen : int;
    nkey : int array;
    mutable kills : int array;
    mutable nkills : int;
    hole : entry;
    mutable offer : Zone.Dbm.t;
    mutable slots : entry array;
    covers : int -> bool;
    victim : int -> unit;
    same : int -> bool;
  }

  let create ~subsume ~max_const pool =
    let fmt = Zone.Dbm.Key.make ~dim:(Zone.Dbm.Pool.dim pool) ~max_const in
    let klen = Zone.Dbm.Key.len fmt in
    let hole =
      { e_id = -1;
        e_state =
          { st_locs = [||]; st_vars = [||]; st_mon = -1;
            st_zone = Zone.Dbm.zero 1 };
        e_node = no_node;
        e_dead = true }
    in
    let rec sc =
      { subsume; pool; fmt; klen; nkey = Array.make klen 0; kills = [||];
        nkills = 0; hole; offer = hole.e_state.st_zone; slots = [||];
        covers =
          (fun s -> Zone.Dbm.includes sc.slots.(s).e_state.st_zone sc.offer);
        victim =
          (fun s ->
            if Zone.Dbm.includes sc.offer sc.slots.(s).e_state.st_zone
            then begin
              sc.kills.(sc.nkills) <- s;
              sc.nkills <- sc.nkills + 1
            end);
        same = (fun s -> Zone.Dbm.equal sc.slots.(s).e_state.st_zone sc.offer) }
    in
    sc

  (* Key copies into the node's long-lived arrays: a typed loop, as in
     {!Zone.Dbm.Pool.copy}, since [Array.blit] would run [caml_modify]
     on every int. *)
  let blit_ints (src : int array) so (dst : int array) d len =
    for p = 0 to len - 1 do
      dst.(d + p) <- src.(so + p)
    done

  (* The newcomer's key goes to [sc.nkey]. *)
  let write_key sc z =
    let head = if sc.subsume then Zone.Dbm.weight z else Zone.Dbm.hash z in
    Zone.Dbm.Key.write sc.fmt z ~head sc.nkey 0

  (* Rebuild block [b]'s summaries from its live slots.  A block of
     holes keeps the cleared summaries, which fail both block
     compares. *)
  let summarise sc n b =
    let max = n.pw_bmax and min = n.pw_bmin and o = b * sc.klen in
    Zone.Dbm.Key.summary_clear sc.fmt ~max ~min o;
    for s = b * block to ((b + 1) * block) - 1 do
      if not n.pw_live.(s).e_dead then
        Zone.Dbm.Key.summary_add sc.fmt ~max ~min o n.pw_keys (s * sc.klen)
    done

  (* Append [e], whose key is in [sc.nkey], and summarise the block it
     fills (only inclusion probes read summaries).  Capacity starts at 4
     slots, so a node that never fills a block pays nothing for them. *)
  let append sc n e =
    let klen = sc.klen in
    if n.pw_len = Array.length n.pw_live then begin
      let cap = max 4 (2 * n.pw_len) in
      let live = Array.make cap sc.hole and keys = Array.make (cap * klen) 0 in
      Array.blit n.pw_live 0 live 0 n.pw_len;
      blit_ints n.pw_keys 0 keys 0 (n.pw_len * klen);
      n.pw_live <- live;
      n.pw_keys <- keys;
      if sc.subsume then begin
        let nsum = cap / block * klen and used = n.pw_len / block * klen in
        let bmax = Array.make nsum 0 and bmin = Array.make nsum 0 in
        blit_ints n.pw_bmax 0 bmax 0 used;
        blit_ints n.pw_bmin 0 bmin 0 used;
        n.pw_bmax <- bmax;
        n.pw_bmin <- bmin
      end
    end;
    let s = n.pw_len in
    n.pw_live.(s) <- e;
    blit_ints sc.nkey 0 n.pw_keys (s * klen) klen;
    n.pw_len <- s + 1;
    if sc.subsume && (s + 1) mod block = 0 then summarise sc n (s / block)

  (* Make slot [i] a hole: its key fails both compares at the head or
     the first word ({!Zone.Dbm.Key.hole}).  Summaries built earlier
     still bound the remaining live keys. *)
  let punch sc n i =
    Zone.Dbm.Key.hole sc.fmt n.pw_keys (i * sc.klen);
    n.pw_live.(i) <- sc.hole;
    n.pw_holes <- n.pw_holes + 1

  (* Stable compaction: live slots slide down in order, the vacated
     tail refers to the filler, and every full block is summarised
     afresh. *)
  let compact sc n =
    let klen = sc.klen and live = n.pw_live and keys = n.pw_keys in
    let w = ref 0 in
    for r = 0 to n.pw_len - 1 do
      let e = live.(r) in
      if not e.e_dead then begin
        if !w < r then begin
          live.(!w) <- e;
          blit_ints keys (r * klen) keys (!w * klen) klen
        end;
        incr w
      end
    done;
    Array.fill live !w (n.pw_len - !w) sc.hole;
    n.pw_len <- !w;
    n.pw_holes <- 0;
    for b = 0 to (!w / block) - 1 do
      summarise sc n b
    done

  (* Store entry [id] without a subsumption scan (snapshot restore). *)
  let restore sc n ~id st =
    let e = { e_id = id; e_state = st; e_node = n; e_dead = false } in
    write_key sc st.st_zone;
    append sc n e;
    e

  (* [add sc n ~expanding ~id st] offers [st] (of [n]'s discrete state)
     to the node.  Covered (by inclusion, or by equality without
     subsumption): its zone goes back to the pool and the result is
     [None].  Otherwise it is stored as entry [id], and when subsuming,
     every live entry its zone includes is marked dead, leaves a hole
     and returns its zone to the pool — except the entry being expanded
     ([expanding]), whose zone the rest of its expansion still reads.

     One pass, newest first ({!Zone.Dbm.Key.scan}), decides both: an
     entry is tested as a cover when its key dominates the newcomer's,
     as a victim when the newcomer's dominates its own, by
     {!Zone.Dbm.includes} only after the key compare passes, and whole
     blocks are skipped where their summaries rule both out (inclusion
     implies key dominance).  Victims are applied only once the pass
     ends uncovered, so the outcome is exactly "exists cover, else
     remove all victims" whatever the entry order. *)
  let add sc n ~expanding ~id st =
    let z = st.st_zone in
    write_key sc z;
    sc.offer <- z;
    sc.slots <- n.pw_live;
    sc.nkills <- 0;
    let covered =
      if sc.subsume then begin
        if Array.length sc.kills < n.pw_len then
          sc.kills <- Array.make (2 * n.pw_len) 0;
        Zone.Dbm.Key.scan sc.fmt ~block ~keys:n.pw_keys ~bmax:n.pw_bmax
          ~bmin:n.pw_bmin ~len:n.pw_len sc.nkey ~cover:sc.covers
          ~victim:sc.victim
      end
      else
        Zone.Dbm.Key.find_equal sc.fmt ~keys:n.pw_keys ~len:n.pw_len sc.nkey
          sc.same
    in
    if covered then begin
      Zone.Dbm.Pool.release sc.pool z;
      None
    end
    else begin
      let e = { e_id = id; e_state = st; e_node = n; e_dead = false } in
      for k = 0 to sc.nkills - 1 do
        let j = sc.kills.(k) in
        let victim = n.pw_live.(j) in
        victim.e_dead <- true;
        if victim.e_id <> expanding then
          Zone.Dbm.Pool.release sc.pool victim.e_state.st_zone;
        punch sc n j
      done;
      append sc n e;
      (* holes at half the slots: each compaction is paid for by the
         removals since the last one *)
      if 2 * n.pw_holes >= n.pw_len && n.pw_holes > 0 then compact sc n;
      Some e
    end
end

type progress = {
  pr_visited : int;
  pr_stored : int;
  pr_queue : int;
}

(* Single stats hook for progress output.  [PSV_MC_PROGRESS] is consulted
   once, when the program starts, not per state; [set_progress_hook]
   overrides the default stderr printer. *)
let progress_hook : (progress -> unit) option ref = ref None

let set_progress_hook h = progress_hook := h

(* Read at module initialisation, not lazily: a [Lazy.t] forced by two
   domains at once raises [Lazy.Undefined] in one of them, and two
   domains can start their first searches together (a query batch run
   by [Analysis.Pool.map] at [jobs > 1]).  No test can make that
   window deterministic, so nothing here is forced at search time. *)
let env_progress =
  if Sys.getenv_opt "PSV_MC_PROGRESS" <> None then
    Some
      (fun p ->
        Printf.eprintf "[mc] visited %d stored %d queue %d\n%!" p.pr_visited
          p.pr_stored p.pr_queue)
  else None

let initial_state t =
  let comp = t.comp in
  let locs =
    Array.map (fun a -> a.Compiled.ca_initial) comp.Compiled.c_automata
  in
  let vars = Array.copy comp.Compiled.c_var_init in
  let z = Zone.Dbm.zero (comp.Compiled.c_nclocks + 1) in
  free_inactive_monitor_clocks t t.monitor.Monitor.mon_initial z;
  Array.iteri (fun ai li -> free_inactive_automaton_clocks t ai li z) locs;
  settle t.comp locs z;
  extrapolate t z;
  { st_locs = locs; st_vars = vars; st_mon = t.monitor.Monitor.mon_initial;
    st_zone = z }

(* --- snapshots --------------------------------------------------------- *)

(* A stored state flattened for serialization: raw discrete vectors plus
   the zone's encoded bound matrix. *)
type snap_entry = {
  se_id : int;
  se_locs : int array;
  se_vars : int array;
  se_mon : int;
  se_zone : int array;
}

type snapshot = {
  snap_fingerprint : Keys.D128.t;
  snap_label : string;  (* which query took it; resume must match *)
  snap_dim : int;
  snap_subsume : bool;
  snap_next_id : int;
  snap_visited : int;
  snap_stored : int;
  snap_entries : snap_entry list;  (* every live passed/waiting state *)
  snap_queue : int array;          (* waiting entry ids, FIFO order *)
  snap_trace : (int * (int * int) list) array;
      (* per id: parent, movers as (automaton, edge-index) pairs *)
  snap_payload : string;           (* query accumulator, caller-defined *)
}

(* Format version lives in the magic string: bump the digit whenever the
   [snapshot] record layout, the fingerprint scheme or the file framing
   changes, so stale files are rejected by the magic check instead of a
   Marshal segfault.  PSVSNAP3 frames the marshalled record with the
   store's digest and length lines ({!Keys.Frame}): a truncated or
   bit-flipped checkpoint is refused before [Marshal] reads a byte. *)
let snapshot_magic = "PSVSNAP3"

(* Structural digest of everything that shapes the exploration: a
   snapshot resumes correctly only against a byte-equivalent search
   space.  The model contribution is a digest of the source network's
   canonical [Xta.Print] text ({!Keys.Key.network_digest}), which —
   unlike the pre-PSVSNAP2 structural walk — covers guards, invariants
   and updates, not just the automaton skeleton.  The monitor step table
   is included, so two delay monitors over different trigger/response
   pairs fingerprint differently even though their automata are
   isomorphic. *)
let fingerprint t =
  let st = Keys.D128.builder () in
  let net_d = Keys.Key.network_digest t.comp.Compiled.c_model in
  Keys.D128.add_int64 st net_d.Keys.D128.hi;
  Keys.D128.add_int64 st net_d.Keys.D128.lo;
  Keys.D128.add_int_array st t.k;
  (* The lower/upper constants and the flag of the retired ExtraLU mode,
     still hashed so existing checkpoints keep their fingerprint. *)
  Keys.D128.add_int_array st
    (tightened ~tight:t.tight t.comp t.comp.Compiled.c_lower_consts);
  Keys.D128.add_int_array st
    (tightened ~tight:t.tight t.comp t.comp.Compiled.c_upper_consts);
  Keys.D128.add_bool st false;
  Keys.D128.add_bool st t.reduce;
  Keys.D128.add_int st (Array.length t.monitor.Monitor.mon_states);
  Keys.D128.add_int st t.monitor.Monitor.mon_initial;
  Keys.D128.add_int st (List.length t.mon_ceiling);
  List.iter
    (fun (c, ceiling) ->
      Keys.D128.add_string st c;
      Keys.D128.add_int st ceiling)
    t.mon_ceiling;
  Array.iter
    (fun row ->
      Keys.D128.add_int st (Array.length row);
      Array.iter
        (function
          | None -> Keys.D128.add_int st (-1)
          | Some (dst, resets) ->
            Keys.D128.add_int st dst;
            Keys.D128.add_int st (List.length resets);
            List.iter (Keys.D128.add_int st) resets)
        row)
    t.mon_step;
  Keys.D128.value st

let save_snapshot path snap =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Keys.Frame.frame ~magic:snapshot_magic
           (Marshal.to_string (snap : snapshot) []));
      (* the channel closes without raising: flush here, so a full disk
         is an error and not a truncated checkpoint *)
      flush oc)

let load_snapshot path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | raw -> (
    match Keys.Frame.unframe ~magic:snapshot_magic raw with
    | Ok payload -> (
      match (Marshal.from_string payload 0 : snapshot) with
      | snap -> Ok snap
      | exception Failure msg -> Error ("corrupt snapshot: " ^ msg))
    | Error (Keys.Frame.Corrupt msg) -> Error ("corrupt snapshot: " ^ msg)
    | Error (Keys.Frame.Version v) ->
      Error
        (Printf.sprintf
           "snapshot version %s is not readable by this build (wants %s); \
            re-run the query without --resume to regenerate it"
           v snapshot_magic)
    | Error Keys.Frame.Foreign -> Error "not a psv snapshot")

(* Resume guard: a snapshot replays correctly only into the same search
   space (fingerprint), the same query kind (label), the same dedup mode
   and the same zone dimension. *)
let check_snapshot t ~label ~subsume snap =
  if not (Keys.D128.equal snap.snap_fingerprint (fingerprint t)) then
    invalid_arg
      "Explorer: snapshot does not match this model/monitor/configuration";
  if snap.snap_label <> label then
    invalid_arg "Explorer: snapshot was taken by a different kind of query";
  if snap.snap_subsume <> subsume then
    invalid_arg "Explorer: snapshot subsumption mode differs";
  if snap.snap_dim <> t.comp.Compiled.c_nclocks + 1 then
    invalid_arg "Explorer: snapshot zone dimension differs"

(* Accessors and a builder, for tools and tests that inspect or rebuild
   a snapshot. *)
let snapshot_next_id s = s.snap_next_id
let snapshot_visited s = s.snap_visited
let snapshot_stored s = s.snap_stored
let snapshot_entries s = s.snap_entries
let snapshot_queue s = s.snap_queue
let snapshot_trace s = s.snap_trace
let snapshot_payload s = s.snap_payload

let make_snapshot t ~label ~subsume ~next_id ~visited ~stored ~entries ~queue
    ~trace ~payload =
  { snap_fingerprint = fingerprint t;
    snap_label = label;
    snap_dim = t.comp.Compiled.c_nclocks + 1;
    snap_subsume = subsume;
    snap_next_id = next_id;
    snap_visited = visited;
    snap_stored = stored;
    snap_entries = entries;
    snap_queue = queue;
    snap_trace = trace;
    snap_payload = payload }

(* --- search ------------------------------------------------------------ *)

type search_result = {
  sr_chain : (int * Compiled.cedge) list list option;
  sr_stats : stats;
  sr_interrupt : Runctl.reason option;
  sr_snapshot : snapshot option;
}

(* [Hashtbl.iter] walks buckets in ascending index, newest key first
   within each, and growing a table keeps each bucket's order.  A table
   created at [size] buckets (rounded up to a power of 2, at least 16,
   doubled whenever its count passes twice its buckets) has at least as
   many buckets as [tbl], so each of its buckets takes the keys of one
   of [tbl]'s buckets, in their order: a stable sort of [tbl]'s walk by
   the bigger table's bucket index is that table's walk. *)
let walk_as ~size tbl =
  let n = Hashtbl.length tbl in
  (* [Hashtbl.create]'s rounding up, then one doubling per overflow *)
  let rec buckets t = if t < size || n > 2 * t then buckets (2 * t) else t in
  let mask = buckets 16 - 1 in
  let bucket k = Hashtbl.hash k land mask in
  List.stable_sort
    (fun (a, _) (b, _) -> Int.compare (bucket a) (bucket b))
    (List.of_seq (Hashtbl.to_seq tbl))

(* Why a search ended before its queue ran dry. *)
type stop =
  | Running
  | Found of int  (* id of the entry that stopped the search *)
  | Interrupted of Runctl.reason

(* The search loop: calls [visit st] on every stored state (including
   the initial one) and stops early when [visit] returns [`Stop].
   [on_expanded] is called after a state's successors have been
   generated, with the number of (non-empty) successors -- used by the
   timelock detector.  The waiting list is a FIFO queue, so the search
   is breadth-first and entry ids are consecutive.

   Budgets ([ctl] and the explorer's state limit) are polled before an
   entry is taken, so an interrupted search leaves the queue intact and
   its snapshot resumes where the uninterrupted run would have
   continued.  [label] names the query kind and must match on resume;
   [payload] is called at snapshot time to save the caller's
   accumulator (e.g. the running sup). *)
let search ?(on_expanded = fun _ _ -> `Continue) ?(subsume = true) ?expand
    ?ctl ?resume ?(label = "") ?(payload = fun () -> "") t visit =
  Option.iter (check_snapshot t ~label ~subsume) resume;
  let pool = fresh_pool t in
  let passed = Passed.create ~subsume ~max_const:(max_const t) pool in
  let nodes : (int, pw_node list ref) Hashtbl.t = Hashtbl.create 16 in
  let waiting : entry Queue.t = Queue.create () in
  (* (parent id, movers) of the k-th entry this search stored, id
     [base + k]; ids below [base] are the resumed snapshot's *)
  let trace = ref (Array.make 16 (-1, [])) in
  let count = ref 0 in
  (* the entry under expansion: its zone must not go back to the pool if
     a successor subsumes it, since the remaining candidates of the
     expansion still read it *)
  let expanding = ref (-1) in
  let base = match resume with Some s -> s.snap_next_id | None -> 0 in
  let stored0 = match resume with Some s -> s.snap_stored | None -> 0 in
  let visited = ref (match resume with Some s -> s.snap_visited | None -> 0) in
  let stop = ref Running in
  let progress =
    match !progress_hook with Some h -> Some h | None -> env_progress
  in
  (* trace rows of a resumed snapshot, edges looked up by (automaton,
     declaration index) *)
  let base_rows =
    match resume with
    | None -> [||]
    | Some snap ->
      let edges =
        Array.map
          (fun a ->
            let tbl = Hashtbl.create 64 in
            Array.iter
              (List.iter (fun ce ->
                   Hashtbl.replace tbl ce.Compiled.ce_index ce))
              a.Compiled.ca_out;
            tbl)
          t.comp.Compiled.c_automata
      in
      Array.map
        (fun (parent, movers) ->
          ( parent,
            List.map (fun (ai, idx) -> (ai, Hashtbl.find edges.(ai) idx))
              movers ))
        snap.snap_trace
  in
  let row id =
    if id < base then
      if id < Array.length base_rows then base_rows.(id) else (-1, [])
    else if id - base < !count then !trace.(id - base)
    else (-1, [])
  in
  let find_node bucket h st =
    let rec go = function
      | [] -> None
      | (n : pw_node) :: rest ->
        if n.pw_hash = h && n.pw_mon = st.st_mon && n.pw_locs = st.st_locs
           && n.pw_vars = st.st_vars
        then Some n
        else go rest
    in
    go !bucket
  in
  let node_for h st =
    let bucket =
      match Hashtbl.find_opt nodes h with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.replace nodes h b;
        b
    in
    match find_node bucket h st with
    | Some n -> n
    | None ->
      let n = Passed.node ~hash:h st in
      bucket := n :: !bucket;
      n
  in
  (* offer [st] to its node [n]; a stored state is queued and visited *)
  let add_state n parent movers st =
    let k = !count in
    let id = base + k in
    match Passed.add passed n ~expanding:!expanding ~id st with
    | None -> ()
    | Some e ->
      if k = Array.length !trace then begin
        let bigger = Array.make (2 * k) (-1, []) in
        Array.blit !trace 0 bigger 0 k;
        trace := bigger
      end;
      !trace.(k) <- (parent, movers);
      count := k + 1;
      Queue.push e waiting;
      (match visit st with
       | `Stop -> stop := Found id
       | `Continue -> ())
  in
  let poll () =
    if !visited >= t.limit then Some (Runctl.State_budget t.limit)
    else
      match ctl with
      | None -> None
      | Some c -> Runctl.check c ~visited:!visited
  in
  (* an expansion starts while the search runs, and only a [`Stop] from
     a hook ends it early *)
  let running () = match !stop with Running -> true | _ -> false in
  let expand_one e =
    expanding := e.e_id;
    let successors = ref 0 in
    (match expand with
     | None ->
       let table = succ_table t e in
       for i = 0 to Array.length table - 1 do
         if running () then begin
           let d = table.(i) in
           match extrapolated t pool (advance t pool e.e_state d) with
           | None -> ()
           | Some st ->
             incr successors;
             (* the half's target node, looked up at its first use *)
             let h = Option.get d.d_half in
             if h.h_node == no_node then h.h_node <- node_for h.h_hash st;
             add_state h.h_node e.e_id d.d_cand.cd_movers st
         end
       done
     | Some f ->
       (* an expansion override produces the whole (candidate, successor)
          list up front; processing still honors [`Stop] exactly like the
          inline path, so verdicts, counters and callback order are
          byte-identical *)
       List.iter
         (fun (cd, succ) ->
           if running () then
             match succ with
             | None -> ()
             | Some st ->
               incr successors;
               add_state
                 (node_for (hash_discrete st.st_locs st.st_vars st.st_mon) st)
                 e.e_id cd.cd_movers st)
         (f pool e.e_state));
    expanding := -1;
    if running () then
      match on_expanded e.e_state !successors with
      | `Stop -> stop := Found e.e_id
      | `Continue -> ()
  in
  (match resume with
   | None ->
     let initial = initial_state t in
     if not (Zone.Dbm.is_empty initial.st_zone) then
       add_state
         (node_for
            (hash_discrete initial.st_locs initial.st_vars initial.st_mon)
            initial)
         (-1) [] initial
   | Some snap ->
     let by_id = Hashtbl.create 4096 in
     List.iter
       (fun se ->
         let st =
           { st_locs = se.se_locs; st_vars = se.se_vars; st_mon = se.se_mon;
             st_zone = Zone.Dbm.of_ints ~dim:snap.snap_dim se.se_zone }
         in
         let n = node_for (hash_discrete st.st_locs st.st_vars st.st_mon) st in
         Hashtbl.replace by_id se.se_id
           (Passed.restore passed n ~id:se.se_id st))
       snap.snap_entries;
     (* the visit callback is NOT replayed for restored states: they were
        considered when first stored, and the caller's accumulator comes
        back through [snap_payload] *)
     Array.iter (fun id -> Queue.push (Hashtbl.find by_id id) waiting)
       snap.snap_queue);
  while running () && not (Queue.is_empty waiting) do
    match poll () with
    | Some r -> stop := Interrupted r
    | None ->
      let e = Queue.pop waiting in
      if not e.e_dead then begin
        incr visited;
        (match progress with
         | Some hook when !visited mod 1_000 = 0 ->
           hook
             { pr_visited = !visited;
               pr_stored = stored0 + !count;
               pr_queue = Queue.length waiting }
         | Some _ | None -> ());
        expand_one e
      end
  done;
  let chain_of id =
    let rec walk acc id =
      if id < 0 then acc
      else
        let parent, movers = row id in
        if parent < 0 then acc else walk (movers :: acc) parent
    in
    walk [] id
  in
  let stats =
    { visited = !visited;
      stored = stored0 + !count;
      frontier =
        Queue.fold (fun n e -> if e.e_dead then n else n + 1) 0 waiting }
  in
  (* each node's entries in insertion order, the queue in FIFO order.
     Nodes go in the order a node table created at 4096 buckets would
     walk them: that was the table's size once, and the walk fixes a
     snapshot's bytes. *)
  let build_snapshot () =
    let entries = ref [] in
    List.iter
      (fun (_, bucket) ->
        List.iter
          (fun n ->
            for i = n.pw_len - 1 downto 0 do
              let e = n.pw_live.(i) in
              if not e.e_dead then
                entries :=
                  { se_id = e.e_id;
                    se_locs = e.e_state.st_locs;
                    se_vars = e.e_state.st_vars;
                    se_mon = e.e_state.st_mon;
                    se_zone = Zone.Dbm.to_ints e.e_state.st_zone }
                  :: !entries
            done)
          !bucket)
      (walk_as ~size:4096 nodes);
    let queue =
      Queue.fold (fun acc e -> if e.e_dead then acc else e.e_id :: acc) []
        waiting
      |> List.rev |> Array.of_list
    in
    let next_id = base + !count in
    make_snapshot t ~label ~subsume ~next_id ~visited:stats.visited
      ~stored:stats.stored
      ~entries:!entries
      ~queue
      ~trace:
        (Array.init next_id (fun id ->
             let parent, movers = row id in
             ( parent,
               List.map (fun (ai, ce) -> (ai, ce.Compiled.ce_index)) movers )))
      ~payload:(payload ())
  in
  let result ?chain ?interrupt ?snapshot () =
    { sr_chain = chain; sr_stats = stats; sr_interrupt = interrupt;
      sr_snapshot = snapshot }
  in
  match !stop with
  | Running -> result ()
  | Found id -> result ~chain:(chain_of id) ()
  | Interrupted r -> result ~interrupt:r ~snapshot:(build_snapshot ()) ()

type reach_result = {
  r_trace : string list option;
  r_stats : stats;
  r_interrupt : Runctl.reason option;
}

let reachable ?expand ?ctl t pred =
  let visit st = if pred st then `Stop else `Continue in
  let r = search ?expand ?ctl ~label:"reachable" t visit in
  { r_trace = Option.map (List.map (describe t)) r.sr_chain;
    r_stats = r.sr_stats;
    r_interrupt = r.sr_interrupt }

type sup_result =
  | Sup_unreached
  | Sup of int * bool
  | Sup_exceeds of int

type sup_outcome = {
  so_sup : sup_result;
  so_stats : stats;
  so_interrupt : Runctl.reason option;
  so_snapshot : snapshot option;
}

let sup_clock ?expand ?ctl ?resume t ~pred ~clock =
  let ci, ceiling = monitor_clock_info t clock in
  let label = "sup:" ^ clock in
  (* the running sup travels with the snapshot: on interrupt it is
     marshalled into the payload, on resume restored from it, so the
     states considered before the interrupt are not re-visited.  The
     snapshot is validated before its payload is unmarshalled. *)
  let best =
    ref
      (match resume with
       | Some snap ->
         check_snapshot t ~label ~subsume:true snap;
         if snap.snap_payload = "" then Sup_unreached
         else (Marshal.from_string snap.snap_payload 0 : sup_result)
       | None -> Sup_unreached)
  in
  let update st =
    if pred st then begin
      let b = Zone.Dbm.sup_clock st.st_zone ci in
      if Zone.Bound.is_infinite b then best := Sup_exceeds ceiling
      else begin
        let v = Zone.Bound.constant b and strict = Zone.Bound.is_strict b in
        match !best with
        | Sup_exceeds _ -> ()
        | Sup_unreached -> best := Sup (v, strict)
        | Sup (v0, s0) ->
          if v > v0 || (v = v0 && s0 && not strict) then best := Sup (v, strict)
      end
    end;
    `Continue
  in
  let payload () = Marshal.to_string !best [] in
  let r = search ?expand ?ctl ?resume ~label ~payload t update in
  { so_sup = !best;
    so_stats = r.sr_stats;
    so_interrupt = r.sr_interrupt;
    so_snapshot = r.sr_snapshot }

let pp_sup_result ppf = function
  | Sup_unreached -> Fmt.string ppf "unreached"
  | Sup (v, true) -> Fmt.pf ppf "< %d" v
  | Sup (v, false) -> Fmt.pf ppf "<= %d" v
  | Sup_exceeds c -> Fmt.pf ppf "> %d (ceiling)" c

(* --- timelock detection ------------------------------------------------ *)

(* A reachable state where no discrete transition is possible and time is
   blocked: either an urgent/committed location pins the clock, or some
   location invariant caps a clock (the stored zones are delay-closed, so
   a finite supremum means time cannot diverge).  Quiescent terminal
   states -- no successors but unbounded delay -- are not timelocks. *)
let find_timelock ?ctl t =
  let time_blocked st =
    no_delay_present t.comp st.st_locs
    ||
    let z = st.st_zone in
    let dim = Zone.Dbm.dim z in
    let rec bounded i =
      i < dim
      && ((not (Zone.Bound.is_infinite (Zone.Dbm.sup_clock z i)))
          || bounded (i + 1))
    in
    bounded 1
  in
  let on_expanded st nsucc =
    if nsucc = 0 && time_blocked st then `Stop else `Continue
  in
  (* Subsumption can hide a time-pinned sub-zone inside a wider live zone,
     so the timelock search deduplicates by zone equality only. *)
  let r =
    search ?ctl ~on_expanded ~subsume:false ~label:"timelock" t
      (fun _ -> `Continue)
  in
  { r_trace = Option.map (List.map (describe t)) r.sr_chain;
    r_stats = r.sr_stats;
    r_interrupt = r.sr_interrupt }

(* --- timed witness traces ---------------------------------------------- *)

type timed_step = {
  td_desc : string;
  td_earliest : int * bool;
  td_latest : (int * bool) option;
}

let pp_time_bound ppf (v, strict) =
  if strict then Fmt.pf ppf "%d+" v else Fmt.int ppf v

let pp_timed_step ppf step =
  let time =
    match step.td_latest with
    | Some hi when hi = step.td_earliest ->
      Fmt.str "t = %a" pp_time_bound step.td_earliest
    | Some hi ->
      Fmt.str "t in [%a, %a]" pp_time_bound step.td_earliest pp_time_bound hi
    | None -> Fmt.str "t >= %a" pp_time_bound step.td_earliest
  in
  Fmt.pf ppf "%-18s %s" time step.td_desc

(* Replay a fixed transition chain exactly (no extrapolation, no
   reduction) with an extra never-reset clock measuring absolute time;
   the clock's interval at each firing gives the possible firing times of
   that step among runs following this chain.  [None] means the chain is
   infeasible — some guard or invariant empties the zone along the way. *)
let replay t chain =
    let tclock = "psv_abs_time" in
    let comp =
      Compiled.compile ~extra_clocks:[ tclock ] t.comp.Compiled.c_model
    in
    let find_edge ai idx =
      let a = comp.Compiled.c_automata.(ai) in
      let hit = ref None in
      Array.iter
        (List.iter (fun ce -> if ce.Compiled.ce_index = idx then hit := Some ce))
        a.Compiled.ca_out;
      match !hit with
      | Some ce -> ce
      | None -> assert false
    in
    let dim = comp.Compiled.c_nclocks + 1 in
    let ti = Compiled.clock_index comp tclock in
    let locs =
      ref (Array.map (fun a -> a.Compiled.ca_initial) comp.Compiled.c_automata)
    in
    let vars = ref (Array.copy comp.Compiled.c_var_init) in
    let z = Zone.Dbm.zero dim in
    settle comp !locs z;
    let steps = ref [] in
    let feasible = ref (not (Zone.Dbm.is_empty z)) in
    List.iter
      (fun movers ->
        if !feasible then begin
          let movers' =
            List.map
              (fun (ai, (ce : Compiled.cedge)) ->
                (ai, find_edge ai ce.Compiled.ce_index))
              movers
          in
          apply_guards z movers';
          if Zone.Dbm.is_empty z then feasible := false
          else begin
            let lo, lo_strict = Zone.Dbm.inf_clock z ti in
            let hi_bound = Zone.Dbm.sup_clock z ti in
            let hi =
              if Zone.Bound.is_infinite hi_bound then None
              else
                Some
                  (Zone.Bound.constant hi_bound, Zone.Bound.is_strict hi_bound)
            in
            steps :=
              { td_desc = describe t movers;
                td_earliest = (lo, lo_strict);
                td_latest = hi }
              :: !steps;
            let next_locs = Array.copy !locs in
            vars := retarget comp next_locs z !vars movers';
            locs := next_locs;
            settle comp !locs z;
            if Zone.Dbm.is_empty z then feasible := false
          end
        end)
      chain;
    if !feasible then Some (List.rev !steps) else None

let timed_trace t pred =
  let visit st = if pred st then `Stop else `Continue in
  match (search ~label:"reachable" t visit).sr_chain with
  | None -> None
  | Some chain -> replay t chain
