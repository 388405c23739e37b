open Ta

type t = {
  comp : Compiled.t;
  monitor : Monitor.t;
  mon_clock_index : (string * int) list;  (* monitor clock name -> DBM index *)
  mon_ceiling : (string * int) list;
  k : int array;  (* ExtraM constants, per DBM clock index *)
  lconsts : int array;  (* ExtraLU lower constants *)
  uconsts : int array;  (* ExtraLU upper constants *)
  use_lu : bool;
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

type verdict =
  | Proved
  | Refuted of string list option
  | Unknown of Runctl.reason

let pp_verdict ppf = function
  | Proved -> Fmt.string ppf "proved"
  | Refuted None -> Fmt.string ppf "REFUTED"
  | Refuted (Some trace) ->
    Fmt.pf ppf "REFUTED (counterexample of %d steps)" (List.length trace)
  | Unknown reason -> Fmt.pf ppf "unknown: %a" Runctl.pp_reason reason

let default_limit = 2_000_000

let make ?(monitor = Monitor.trivial) ?tight ?(limit = default_limit)
    ?(reduce = true) ?(lu = false) net =
  let mon_clocks = List.map fst monitor.Monitor.mon_clocks in
  let comp =
    Compiled.compile ~extra_clocks:mon_clocks
      ~clock_ceilings:monitor.Monitor.mon_clocks net
  in
  let tight = match tight with Some b -> b | None -> false in
  let k = Array.copy comp.Compiled.c_max_consts in
  let lconsts = Array.copy comp.Compiled.c_lower_consts in
  let uconsts = Array.copy comp.Compiled.c_upper_consts in
  if tight then begin
    let hi = Array.fold_left max 0 k in
    for i = 1 to Array.length k - 1 do
      k.(i) <- hi;
      lconsts.(i) <- hi;
      uconsts.(i) <- hi
    done
  end;
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
    lconsts;
    uconsts;
    use_lu = lu;
    limit;
    reduce;
    taus;
    sends;
    recvs;
    mon_free;
    mon_step }

let compiled t = t.comp

let fresh_pool t = Zone.Dbm.Pool.create (t.comp.Compiled.c_nclocks + 1)

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

let bound_of_dc (dc : Compiled.dconstraint) =
  if dc.Compiled.dc_strict then Zone.Bound.lt dc.Compiled.dc_bound
  else Zone.Bound.le dc.Compiled.dc_bound

let apply_dconstraints z dcs =
  List.iter
    (fun (dc : Compiled.dconstraint) ->
      Zone.Dbm.constrain z dc.Compiled.dc_i dc.Compiled.dc_j (bound_of_dc dc))
    dcs

let apply_invariants t locs z =
  Array.iteri
    (fun ai li ->
      apply_dconstraints z t.comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_inv)
    locs

let loc_kind t ai li =
  t.comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_kind

let committed_present t locs =
  let n = Array.length locs in
  let rec loop ai =
    ai < n
    && (loc_kind t ai locs.(ai) = Model.Committed || loop (ai + 1))
  in
  loop 0

let no_delay_present t locs =
  let n = Array.length locs in
  let rec loop ai =
    ai < n
    && ((match loc_kind t ai locs.(ai) with
         | Model.Urgent | Model.Committed -> true
         | Model.Normal -> false)
        || loop (ai + 1))
  in
  loop 0

(* Clocks the monitor declares inactive carry no information; freeing them
   merges zones that differ only in their value. *)
let free_inactive_monitor_clocks t mon_state z =
  List.iter (Zone.Dbm.free z) t.mon_free.(mon_state)

(* Activity reduction: free the clocks that are dead at an automaton's
   current location (see Compiled.cl_free). *)
let free_inactive_automaton_clocks t ai li z =
  if t.reduce then
    List.iter (Zone.Dbm.free z)
      t.comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_free

(* --- transition firing ------------------------------------------------ *)

(* A candidate discrete transition: the moving edges in update order
   (sender first), plus the synchronising channel (by index) if any. *)
type candidate = {
  cd_movers : (int * Compiled.cedge) list;
  cd_chan : int option;
}

let describe t cd =
  let heads =
    List.map (fun (_, ce) -> Compiled.describe_edge t.comp ce) cd.cd_movers
  in
  String.concat " | " heads

let movers cd = cd.cd_movers

(* [fire t pool st cd] applies candidate [cd] to [st].  The successor
   zone is taken from [pool]; candidates whose guard (or target
   invariant) empties the zone return their scratch matrix to the pool
   instead of leaving it to the GC -- in a typical exploration most
   candidates die here, so this removes the dominant allocation. *)
let fire t pool st cd =
  let z = Zone.Dbm.Pool.copy pool st.st_zone in
  let dead () =
    Zone.Dbm.Pool.release pool z;
    None
  in
  List.iter (fun (_, ce) -> apply_dconstraints z ce.Compiled.ce_guard)
    cd.cd_movers;
  if Zone.Dbm.is_empty z then dead ()
  else begin
    let locs' = Array.copy st.st_locs in
    List.iter (fun (ai, ce) -> locs'.(ai) <- ce.Compiled.ce_dst) cd.cd_movers;
    let vars' =
      (* [apply_updates] copies the valuation; share the parent's array
         for the common case of update-free movers *)
      List.fold_left
        (fun vals (_, ce) ->
          if ce.Compiled.ce_updates = [] then vals
          else Compiled.apply_updates t.comp vals ce.Compiled.ce_updates)
        st.st_vars cd.cd_movers
    in
    let mon', mon_resets =
      match cd.cd_chan with
      | None -> (st.st_mon, [])
      | Some ch ->
        (match t.mon_step.(ch).(st.st_mon) with
         | Some (dst, resets) -> (dst, resets)
         | None -> (st.st_mon, []))
    in
    List.iter
      (fun (_, ce) -> List.iter (Zone.Dbm.reset z) ce.Compiled.ce_resets)
      cd.cd_movers;
    List.iter (Zone.Dbm.reset z) mon_resets;
    free_inactive_monitor_clocks t mon' z;
    List.iter
      (fun (ai, ce) ->
        free_inactive_automaton_clocks t ai ce.Compiled.ce_dst z)
      cd.cd_movers;
    apply_invariants t locs' z;
    if Zone.Dbm.is_empty z then dead ()
    else begin
      if not (no_delay_present t locs') then begin
        Zone.Dbm.up z;
        apply_invariants t locs' z
      end;
      if t.use_lu then Zone.Dbm.extrapolate_lu z t.lconsts t.uconsts
      else Zone.Dbm.extrapolate z t.k;
      if Zone.Dbm.is_empty z then dead ()
      else Some { st_locs = locs'; st_vars = vars'; st_mon = mon'; st_zone = z }
    end
  end

(* [fire_pre] is [fire] with the successor zone additionally exposed as it
   stood just {e before} extrapolation.  Everything up to that point —
   guards, updates, monitor step, resets, activity reduction, invariants,
   delay closure — depends only on the model structure, never on the
   extrapolation constants, so a recorded pre-extrapolation zone stays
   valid across edits that merely move a maximal constant, and
   [admit_pre] re-applies the {e current} extrapolation.
   Emptiness is decided before extrapolation (widening cannot empty a
   non-empty canonical zone), so [Fired_dead] is extrapolation-independent
   too. *)
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
  let z = Zone.Dbm.Pool.copy pool st.st_zone in
  let dead () =
    Zone.Dbm.Pool.release pool z;
    Fired_dead
  in
  List.iter (fun (_, ce) -> apply_dconstraints z ce.Compiled.ce_guard)
    cd.cd_movers;
  if Zone.Dbm.is_empty z then dead ()
  else begin
    let locs' = Array.copy st.st_locs in
    List.iter (fun (ai, ce) -> locs'.(ai) <- ce.Compiled.ce_dst) cd.cd_movers;
    let vars' =
      List.fold_left
        (fun vals (_, ce) ->
          if ce.Compiled.ce_updates = [] then vals
          else Compiled.apply_updates t.comp vals ce.Compiled.ce_updates)
        st.st_vars cd.cd_movers
    in
    let mon', mon_resets =
      match cd.cd_chan with
      | None -> (st.st_mon, [])
      | Some ch ->
        (match t.mon_step.(ch).(st.st_mon) with
         | Some (dst, resets) -> (dst, resets)
         | None -> (st.st_mon, []))
    in
    List.iter
      (fun (_, ce) -> List.iter (Zone.Dbm.reset z) ce.Compiled.ce_resets)
      cd.cd_movers;
    List.iter (Zone.Dbm.reset z) mon_resets;
    free_inactive_monitor_clocks t mon' z;
    List.iter
      (fun (ai, ce) ->
        free_inactive_automaton_clocks t ai ce.Compiled.ce_dst z)
      cd.cd_movers;
    apply_invariants t locs' z;
    if Zone.Dbm.is_empty z then dead ()
    else begin
      if not (no_delay_present t locs') then begin
        Zone.Dbm.up z;
        apply_invariants t locs' z
      end;
      let fl_pre = Zone.Dbm.to_ints z in
      if t.use_lu then Zone.Dbm.extrapolate_lu z t.lconsts t.uconsts
      else Zone.Dbm.extrapolate z t.k;
      let fl_state =
        if Zone.Dbm.is_empty z then begin
          Zone.Dbm.Pool.release pool z;
          None
        end
        else
          Some { st_locs = locs'; st_vars = vars'; st_mon = mon'; st_zone = z }
      in
      Fired_live
        { fl_state; fl_locs = locs'; fl_vars = vars'; fl_mon = mon'; fl_pre }
    end
  end

(* Replay counterpart of [fire_pre]: rebuild a recorded successor from its
   pre-extrapolation zone and finish with {e this} explorer's
   extrapolation, so the state comes out exactly as [fire] on the current
   model would produce it. *)
let admit_pre t ~locs ~vars ~mon ~pre =
  let dim = t.comp.Compiled.c_nclocks + 1 in
  let z = Zone.Dbm.of_ints ~dim pre in
  if t.use_lu then Zone.Dbm.extrapolate_lu z t.lconsts t.uconsts
  else Zone.Dbm.extrapolate z t.k;
  if Zone.Dbm.is_empty z then None
  else Some { st_locs = locs; st_vars = vars; st_mon = mon; st_zone = z }

(* --- transition enumeration ------------------------------------------ *)

(* Combos in lexicographic order (leftmost list most significant), built
   by consing onto the suffix combos -- no list appends. *)
let cartesian choice_lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    choice_lists
    [ [] ]

let candidates t st =
  let comp = t.comp in
  let nauts = Array.length comp.Compiled.c_automata in
  let com = committed_present t st.st_locs in
  let allowed movers =
    (not com)
    || List.exists
         (fun (ai, ce) -> loc_kind t ai ce.Compiled.ce_src = Model.Committed)
         movers
  in
  let acc = ref [] in
  let add movers chan =
    let cd = { cd_movers = movers; cd_chan = chan } in
    if allowed movers then acc := cd :: !acc
  in
  let enabled ce = ce.Compiled.ce_pred st.st_vars in
  (* internal moves *)
  for ai = 0 to nauts - 1 do
    Array.iter
      (fun ce -> if enabled ce then add [ (ai, ce) ] None)
      t.taus.(ai).(st.st_locs.(ai))
  done;
  (* synchronisations, per channel *)
  let nchans = Array.length comp.Compiled.c_chan_kinds in
  for ch = 0 to nchans - 1 do
    let senders = ref [] in
    for ai = nauts - 1 downto 0 do
      Array.iter
        (fun ce -> if enabled ce then senders := (ai, ce) :: !senders)
        t.sends.(ai).(st.st_locs.(ai)).(ch)
    done;
    if !senders <> [] then begin
      match comp.Compiled.c_chan_kinds.(ch) with
      | Model.Binary ->
        let receivers = ref [] in
        for ai = nauts - 1 downto 0 do
          Array.iter
            (fun ce -> if enabled ce then receivers := (ai, ce) :: !receivers)
            t.recvs.(ai).(st.st_locs.(ai)).(ch)
        done;
        List.iter
          (fun (sa, se) ->
            List.iter
              (fun (ra, re) ->
                if sa <> ra then add [ (sa, se); (ra, re) ] (Some ch))
              !receivers)
          !senders
      | Model.Broadcast ->
        let recv_choices sa =
          let per_aut = ref [] in
          for ai = nauts - 1 downto 0 do
            if ai <> sa then begin
              let edges =
                Array.fold_right
                  (fun ce acc -> if enabled ce then (ai, ce) :: acc else acc)
                  t.recvs.(ai).(st.st_locs.(ai)).(ch)
                  []
              in
              if edges <> [] then per_aut := edges :: !per_aut
            end
          done;
          !per_aut
        in
        List.iter
          (fun (sa, se) ->
            let combos = cartesian (recv_choices sa) in
            List.iter
              (fun receivers -> add ((sa, se) :: receivers) (Some ch))
              combos)
          !senders
    end
  done;
  List.rev !acc

(* --- passed/waiting store ---------------------------------------------- *)

(* A stored symbolic state.  Trace information (parent id, movers) lives
   in a side table indexed by id, so a dead entry pins no zone and no
   trace data once it has drained from the queue. *)
type entry = {
  e_id : int;
  e_state : state;
  mutable e_dead : bool;
}

(* One discrete state (locs, vars, mon) of the passed/waiting list, with
   its live zones.  Nodes hang off a hash-keyed table; the hash is
   computed once per state and cached in the node ([pw_hash]), so
   subsumption probes compare a machine integer before touching the
   discrete vectors, and a parallel store can route on the same hash
   without recomputing it.  Collisions are resolved by structural
   comparison here.

   Entries occupy the slots [pw_live.(0 .. pw_len-1)] in insertion
   order, and [pw_keys] holds their {!Zone.Dbm.write_key} keys, [key_len]
   ints per slot at the same index, so a subsumption scan reads one flat
   int array and dereferences an entry only when its key passes.  A
   killed entry leaves a hole until the node is compacted ([pw_holes]
   counts them).  Every full block of {!Passed.block} slots has two
   summaries, [key_len] ints per block in [pw_bmax] and [pw_bmin]: the
   componentwise max and min of the keys of its live entries. *)
type pw_node = {
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
}

module Passed = struct
  type nonrec entry = entry
  type node = pw_node

  let entry_id e = e.e_id
  let entry_dead e = e.e_dead

  let block = 8

  let node ~hash st =
    { pw_hash = hash; pw_locs = st.st_locs; pw_vars = st.st_vars;
      pw_mon = st.st_mon; pw_live = [||]; pw_keys = [||]; pw_bmax = [||];
      pw_bmin = [||]; pw_len = 0; pw_holes = 0 }

  (* A slot holds a dead entry exactly when it is a hole. *)
  let live n =
    let acc = ref [] in
    for i = n.pw_len - 1 downto 0 do
      let e = n.pw_live.(i) in
      if not e.e_dead then acc := e :: !acc
    done;
    !acc

  let slots n = n.pw_len

  (* Per-search scratch: the dedup mode, the newcomer's key, the indices
     of the entries it covers, and the dead entry that fills holes and
     unused slots, so a slot never pins a killed entry or its zone. *)
  type t = {
    subsume : bool;
    pool : Zone.Dbm.Pool.t;
    klen : int;
    nkey : int array;
    mutable kills : int array;
    hole : entry;
  }

  let create ~subsume pool =
    let klen = Zone.Dbm.key_len (Zone.Dbm.Pool.dim pool) in
    let hole =
      { e_id = -1;
        e_state =
          { st_locs = [||]; st_vars = [||]; st_mon = -1;
            st_zone = Zone.Dbm.zero 1 };
        e_dead = true }
    in
    { subsume; pool; klen; nkey = Array.make klen 0; kills = [||]; hole }

  (* [a.(ao + p) >= b.(bo + p)] at every [p < len]: the key of the zone
     at [bo] is dominated by the one at [ao].  A plain loop, not a local
     closure: this is the innermost loop of the search. *)
  let key_ge (a : int array) ao (b : int array) bo len =
    let p = ref 0 in
    while !p < len && Array.unsafe_get a (ao + !p) >= Array.unsafe_get b (bo + !p)
    do
      incr p
    done;
    !p = len

  (* Key copies into the node's long-lived arrays: a typed loop, as in
     {!Zone.Dbm.Pool.copy}, since [Array.blit] would run [caml_modify]
     on every int. *)
  let blit_ints (src : int array) so (dst : int array) d len =
    for p = 0 to len - 1 do
      dst.(d + p) <- src.(so + p)
    done

  (* The newcomer's key goes to [sc.nkey]; its head is returned. *)
  let write_key sc z =
    let head = if sc.subsume then Zone.Dbm.weight z else Zone.Dbm.hash z in
    Zone.Dbm.write_key z ~head sc.nkey 0;
    head

  (* Rebuild block [b]'s summaries from its live slots.  A block of
     holes gets max [min_int] and min [max_int], which fail both block
     compares. *)
  let summarise sc n b =
    let klen = sc.klen and keys = n.pw_keys in
    let bmax = n.pw_bmax and bmin = n.pw_bmin and o = b * klen in
    for p = o to o + klen - 1 do
      bmax.(p) <- min_int;
      bmin.(p) <- max_int
    done;
    for s = b * block to ((b + 1) * block) - 1 do
      if not n.pw_live.(s).e_dead then
        for p = 0 to klen - 1 do
          let k = keys.((s * klen) + p) in
          if k > bmax.(o + p) then bmax.(o + p) <- k;
          if k < bmin.(o + p) then bmin.(o + p) <- k
        done
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

  (* Make slot [i] a hole.  Its key fails both compares within two
     positions: no weight reaches [max_int], so no newcomer's key
     dominates it, and position 1, entry (0, 0) of a non-empty zone, is
     [le 0] > [min_int], so it dominates no newcomer's key.  Summaries
     built earlier still bound the remaining live keys. *)
  let punch sc n i =
    let off = i * sc.klen in
    n.pw_keys.(off) <- max_int;
    n.pw_keys.(off + 1) <- min_int;
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

  (* Store an entry without a subsumption scan (snapshot restore). *)
  let restore sc n e =
    ignore (write_key sc e.e_state.st_zone : int);
    append sc n e

  (* [add sc n ~expanding ~id st] offers [st] (of [n]'s discrete state)
     to the node.  Covered (by inclusion, or by equality without
     subsumption): its zone goes back to the pool and the result is
     [None].  Otherwise it is stored as entry [id], and when subsuming,
     every live entry its zone includes is marked dead, leaves a hole
     and returns its zone to the pool — except the entry being expanded
     ([expanding]), whose zone the rest of its expansion still reads.

     One pass, newest first, decides both: an entry is tested as a
     cover when its key dominates the newcomer's, as a victim when the
     newcomer's dominates its own, by {!Zone.Dbm.includes} only after
     the key compare passes.  The unsummarised tail is scanned slot by
     slot, then each full block is entered only in the directions its
     summaries allow: no entry can cover unless the block max dominates
     the newcomer's key, and none can be a victim unless the newcomer's
     key dominates the block min (inclusion implies key dominance).
     Victims are applied only once the pass ends uncovered, so the
     outcome is exactly "exists cover, else remove all victims" whatever
     the entry order. *)
  let add sc n ~expanding ~id st =
    let z = st.st_zone in
    let klen = sc.klen and nk = sc.nkey in
    let head = write_key sc z in
    let keys = n.pw_keys and live = n.pw_live in
    let covered = ref false and nkills = ref 0 and i = ref (n.pw_len - 1) in
    if sc.subsume then begin
      if Array.length sc.kills < n.pw_len then
        sc.kills <- Array.make (2 * n.pw_len) 0;
      (* [lo] is the first slot of the current group (the tail, then
         block [b]); [cover]/[kill] are the directions it allows *)
      let b = ref (n.pw_len / block) in
      let lo = ref (!b * block) and cover = ref true and kill = ref true in
      while (not !covered) && !i >= 0 do
        if !i < !lo then begin
          decr b;
          lo := !b * block;
          cover := key_ge n.pw_bmax (!b * klen) nk 0 klen;
          kill := key_ge nk 0 n.pw_bmin (!b * klen) klen;
          if not (!cover || !kill) then i := !lo - 1
        end
        else begin
          let off = !i * klen in
          if !cover && key_ge keys off nk 0 klen
             && Zone.Dbm.includes live.(!i).e_state.st_zone z
          then covered := true
          else if !kill && key_ge nk 0 keys off klen
                  && Zone.Dbm.includes z live.(!i).e_state.st_zone
          then begin
            sc.kills.(!nkills) <- !i;
            incr nkills
          end;
          decr i
        end
      done
    end
    else
      while (not !covered) && !i >= 0 do
        if keys.(!i * klen) = head
           && Zone.Dbm.equal live.(!i).e_state.st_zone z
        then covered := true;
        decr i
      done;
    if !covered then begin
      Zone.Dbm.Pool.release sc.pool z;
      None
    end
    else begin
      let e = { e_id = id; e_state = st; e_dead = false } in
      for k = 0 to !nkills - 1 do
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
   once, not per state; [set_progress_hook] overrides the default
   stderr printer. *)
let progress_hook : (progress -> unit) option ref = ref None

let set_progress_hook h = progress_hook := h

let env_progress =
  lazy
    (if Sys.getenv_opt "PSV_MC_PROGRESS" <> None then
       Some
         (fun p ->
           Printf.eprintf "[mc] visited %d stored %d queue %d\n%!" p.pr_visited
             p.pr_stored p.pr_queue)
     else None)

let hash_discrete locs vars mon =
  let h = ref (mon + 0x9e3779b9) in
  Array.iter (fun v -> h := (!h lxor v) * 0x01000193) locs;
  Array.iter (fun v -> h := (!h lxor v) * 0x01000193) vars;
  !h land max_int

let initial_state t =
  let comp = t.comp in
  let locs =
    Array.map (fun a -> a.Compiled.ca_initial) comp.Compiled.c_automata
  in
  let vars = Array.copy comp.Compiled.c_var_init in
  let z = Zone.Dbm.zero (comp.Compiled.c_nclocks + 1) in
  free_inactive_monitor_clocks t t.monitor.Monitor.mon_initial z;
  Array.iteri (fun ai li -> free_inactive_automaton_clocks t ai li z) locs;
  apply_invariants t locs z;
  if not (no_delay_present t locs) then begin
    Zone.Dbm.up z;
    apply_invariants t locs z
  end;
  if t.use_lu then Zone.Dbm.extrapolate_lu z t.lconsts t.uconsts
  else Zone.Dbm.extrapolate z t.k;
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
  snap_fingerprint : Store.D128.t;
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
   [snapshot] record layout or the fingerprint scheme changes, so stale
   files are rejected by the magic check instead of a Marshal
   segfault. *)
let snapshot_magic = "PSVSNAP2"

(* Structural digest of everything that shapes the exploration: a
   snapshot resumes correctly only against a byte-equivalent search
   space.  The model contribution is a digest of the source network's
   canonical [Xta.Print] text ({!Store.Key.network_digest}), which —
   unlike the pre-PSVSNAP2 structural walk — covers guards, invariants
   and updates, not just the automaton skeleton.  The monitor step table
   is included, so two delay monitors over different trigger/response
   pairs fingerprint differently even though their automata are
   isomorphic. *)
let fingerprint t =
  let st = Store.D128.builder () in
  let net_d = Store.Key.network_digest t.comp.Compiled.c_model in
  Store.D128.add_int64 st net_d.Store.D128.hi;
  Store.D128.add_int64 st net_d.Store.D128.lo;
  Store.D128.add_int_array st t.k;
  Store.D128.add_int_array st t.lconsts;
  Store.D128.add_int_array st t.uconsts;
  Store.D128.add_bool st t.use_lu;
  Store.D128.add_bool st t.reduce;
  Store.D128.add_int st (Array.length t.monitor.Monitor.mon_states);
  Store.D128.add_int st t.monitor.Monitor.mon_initial;
  Store.D128.add_int st (List.length t.mon_ceiling);
  List.iter
    (fun (c, ceiling) ->
      Store.D128.add_string st c;
      Store.D128.add_int st ceiling)
    t.mon_ceiling;
  Array.iter
    (fun row ->
      Store.D128.add_int st (Array.length row);
      Array.iter
        (function
          | None -> Store.D128.add_int st (-1)
          | Some (dst, resets) ->
            Store.D128.add_int st dst;
            Store.D128.add_int st (List.length resets);
            List.iter (Store.D128.add_int st) resets)
        row)
    t.mon_step;
  Store.D128.value st

let save_snapshot path snap =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc snapshot_magic;
      Marshal.to_channel oc (snap : snapshot) [];
      flush oc)

let load_snapshot path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let magic = really_input_string ic (String.length snapshot_magic) in
        if magic = snapshot_magic then
          Ok (Marshal.from_channel ic : snapshot)
        else if String.length magic >= 7 && String.sub magic 0 7 = "PSVSNAP"
        then
          Error
            (Printf.sprintf
               "snapshot version %s is not readable by this build (wants %s); \
                re-run the query without --resume to regenerate it"
               magic snapshot_magic)
        else Error "not a psv snapshot")
  with
  | Sys_error msg -> Error msg
  | End_of_file -> Error "truncated snapshot"
  | Failure msg -> Error ("corrupt snapshot: " ^ msg)

(* Resume guard: a snapshot replays correctly only into the same search
   space (fingerprint), the same query kind (label), the same dedup mode
   and the same zone dimension. *)
let check_snapshot t ~label ~subsume snap =
  if not (Store.D128.equal snap.snap_fingerprint (fingerprint t)) then
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

let recommended_jobs () = Domain.recommended_domain_count ()

(* A successor on its way to the partition that owns its discrete state,
   with the hash it was routed on. *)
type message = {
  m_hash : int;
  m_depth : int;
  m_parent : int;
  m_movers : (int * Compiled.cedge) list;
  m_state : state;
}

(* Why a search is winding down.  [Running] is an immediate constructor,
   so first-one-wins transitions are [compare_and_set stop Running _]. *)
type stop =
  | Running
  | Found of int  (* id of the entry that stopped the search *)
  | Interrupted of Runctl.reason
  | Crashed of exn * string  (* the first crash, with its backtrace *)

(* Waiting entries by depth (successor of depth [d] at [d + 1]): a pop
   takes the shallowest entry, first in first out within a depth.  A
   one-partition search pushes depths in non-decreasing order, so there
   this is exactly a FIFO queue. *)
module Levels = struct
  type t = {
    mutable lv : entry Queue.t array;
    mutable lo : int;  (* every depth below is empty *)
    mutable size : int;
  }

  let create () = { lv = [| Queue.create () |]; lo = 0; size = 0 }

  let push t d e =
    let n = Array.length t.lv in
    if d >= n then
      t.lv <-
        Array.init (max (d + 1) (2 * n)) (fun i ->
            if i < n then t.lv.(i) else Queue.create ());
    Queue.push e t.lv.(d);
    if d < t.lo then t.lo <- d;
    t.size <- t.size + 1

  let is_empty t = t.size = 0

  (* the shallowest entry, whose depth is then [lo]; [t] must not be
     empty *)
  let rec peek t =
    let q = t.lv.(t.lo) in
    if Queue.is_empty q then begin
      t.lo <- t.lo + 1;
      peek t
    end
    else Queue.peek q

  let drop t =
    ignore (Queue.pop t.lv.(t.lo) : entry);
    t.size <- t.size - 1

  let length t = t.size

  let fold f acc t = Array.fold_left (Queue.fold f) acc t.lv
end

(* One partition of the passed/waiting store: the nodes whose discrete
   hash it owns, their waiting entries, the trace rows of the entries it
   numbered and a DBM pool.  Only the domain that owns it touches it
   while the search runs; other domains reach it through [pt_inbox]. *)
type part = {
  pt_index : int;
  pt_pool : Zone.Dbm.Pool.t;
  pt_passed : Passed.t;
  pt_nodes : (int, pw_node list ref) Hashtbl.t;
  pt_waiting : Levels.t;
  mutable pt_trace : (int * (int * Compiled.cedge) list) array;
      (* (parent id, movers) of the k-th entry this partition stored *)
  mutable pt_count : int;  (* entries stored, so rows in [pt_trace] *)
  mutable pt_expanding : int;
      (* the entry under expansion: its zone must not go back to the pool
         if a successor subsumes it, since the remaining candidates of
         the expansion still read it *)
  mutable pt_ticks : int;  (* polls, for striped ctl sampling *)
  pt_inbox : message list list Atomic.t;  (* delivered batches *)
  pt_out : message list array;  (* per owning partition, newest first *)
  pt_nout : int array;
  pt_idle : bool Atomic.t;
}

(* Successors travel to their owner in batches of this many, or sooner
   when the owner runs out of work. *)
let batch_size = 64

(* Idle partitions spin this many [cpu_relax] rounds before sleeping. *)
let spin_rounds = 2048

(* The generic search loop: calls [visit p st] on every stored state
   (including the initial one), from the domain owning partition [p];
   stops early when [visit] returns [`Stop].  [on_expanded] is called
   after a state's successors have been generated, with the number of
   (non-empty) successors -- used by the timelock detector.

   With [jobs > 1] the store is split into [jobs] partitions by discrete
   hash, one per domain (owner-computes): a domain expands only the
   entries it owns and sends every other successor, in batches, to the
   partition that owns it.  With [jobs = 1] the one partition owns
   everything and no successor ever leaves it.

   Budgets ([ctl] and the explorer's state limit) are polled before an
   entry is taken, so an interrupted search leaves the waiting queues
   intact; a budget/cancel interrupt lets in-flight expansions finish and
   delivers their successors, so the snapshot is a coherent cut that
   resumes where the uninterrupted run would have continued.  [label]
   names the query kind and must match on resume; [payload] is called at
   snapshot time to save the caller's accumulator (e.g. the running
   sup). *)
let search ?(jobs = 1) ?(on_expanded = fun _ _ -> `Continue)
    ?(on_transition = fun _ -> ()) ?(subsume = true) ?expand ?order ?ctl
    ?resume ?(label = "") ?(payload = fun () -> "") t visit =
  let jobs = max 1 jobs in
  let par = jobs > 1 in
  Option.iter (check_snapshot t ~label ~subsume) resume;
  (* the one table of a jobs = 1 search keeps its historical size: the
     size fixes the table's iteration order, hence a snapshot's bytes *)
  let parts =
    Array.init jobs (fun i ->
        let pool = fresh_pool t in
        { pt_index = i;
          pt_pool = pool;
          pt_passed = Passed.create ~subsume pool;
          pt_nodes = Hashtbl.create (if par then 256 else 4096);
          pt_waiting = Levels.create ();
          pt_trace = Array.make 1024 (-1, []);
          pt_count = 0;
          pt_expanding = -1;
          pt_ticks = 0;
          pt_inbox = Atomic.make [];
          pt_out = Array.make jobs [];
          pt_nout = Array.make jobs 0;
          pt_idle = Atomic.make false })
  in
  (* the FNV hash mixes upwards only (its low bits are parities of the
     vectors' low bits), so it is finalised before it splits the store *)
  let owner h =
    if par then begin
      let h = (h lxor (h lsr 29)) * 0x3f4a7c15 in
      ((h lxor (h lsr 32)) land max_int) mod jobs
    end
    else 0
  in
  (* Ids below [base] are the resumed snapshot's; partition [p] numbers
     its k-th entry [base + p + k * jobs]. *)
  let base = match resume with Some s -> s.snap_next_id | None -> 0 in
  let stored0 = match resume with Some s -> s.snap_stored | None -> 0 in
  let visited =
    Atomic.make (match resume with Some s -> s.snap_visited | None -> 0)
  in
  (* the state budget is reserved, not detected: [visited] never passes
     [hard_limit], even transiently, whatever the number of domains *)
  let hard_limit =
    match Option.bind ctl (fun c -> (Runctl.budget c).Runctl.b_states) with
    | Some n -> min n t.limit
    | None -> t.limit
  in
  let stop = Atomic.make Running in
  let running () = match Atomic.get stop with Running -> true | _ -> false in
  (* an interrupt lets expansions in flight finish, so the store stays a
     coherent cut; a witness or a crash abandons them *)
  let proceed () =
    match Atomic.get stop with
    | Running | Interrupted _ -> true
    | Found _ | Crashed _ -> false
  in
  let halt s = ignore (Atomic.compare_and_set stop Running s) in
  (* a witness found while an interrupt winds down still answers *)
  let found id =
    match Atomic.get stop with
    | (Running | Interrupted _) as s ->
      ignore (Atomic.compare_and_set stop s (Found id))
    | Found _ | Crashed _ -> ()
  in
  let crashed exn = halt (Crashed (exn, Printexc.get_backtrace ())) in
  let supervised f = if par then try f () with exn -> crashed exn else f () in
  let progress =
    match !progress_hook with Some h -> Some h | None -> Lazy.force env_progress
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
    else
      let p = parts.((id - base) mod jobs) and k = (id - base) / jobs in
      if k < p.pt_count then p.pt_trace.(k) else (-1, [])
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
  let node_for p h st =
    let bucket =
      match Hashtbl.find_opt p.pt_nodes h with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.replace p.pt_nodes h b;
        b
    in
    match find_node bucket h st with
    | Some n -> n
    | None ->
      let n = Passed.node ~hash:h st in
      bucket := n :: !bucket;
      n
  in
  (* offer [st] to its owner [p]; a stored state is queued and visited *)
  let add_state p h depth parent movers st =
    let k = p.pt_count in
    let id = base + p.pt_index + (k * jobs) in
    match
      Passed.add p.pt_passed (node_for p h st) ~expanding:p.pt_expanding ~id
        st
    with
    | None -> ()
    | Some e ->
      if k = Array.length p.pt_trace then begin
        let bigger = Array.make (2 * k) (-1, []) in
        Array.blit p.pt_trace 0 bigger 0 k;
        p.pt_trace <- bigger
      end;
      p.pt_trace.(k) <- (parent, movers);
      p.pt_count <- k + 1;
      Levels.push p.pt_waiting depth e;
      (match visit p.pt_index st with
       | `Stop -> found id
       | `Continue -> ())
  in
  (* termination: [pending] counts the partitions at work plus the
     batches sent and not yet taken; a batch is counted before it is
     pushed and an idle partition counts itself back in before taking
     one, so [pending = 0] means no work exists and none can appear *)
  let pending = Atomic.make jobs in
  let flush p o =
    let batch = p.pt_out.(o) in
    p.pt_out.(o) <- [];
    p.pt_nout.(o) <- 0;
    Atomic.incr pending;
    let inbox = parts.(o).pt_inbox in
    let rec push () =
      let cur = Atomic.get inbox in
      if not (Atomic.compare_and_set inbox cur (batch :: cur)) then push ()
    in
    push ()
  in
  let flush_all p =
    for o = 0 to jobs - 1 do
      if p.pt_nout.(o) > 0 then flush p o
    done
  in
  let route p h depth parent movers st =
    let o = owner h in
    if o = p.pt_index then add_state p h depth parent movers st
    else begin
      p.pt_out.(o) <-
        { m_hash = h; m_depth = depth; m_parent = parent; m_movers = movers;
          m_state = st }
        :: p.pt_out.(o);
      p.pt_nout.(o) <- p.pt_nout.(o) + 1;
      if p.pt_nout.(o) >= batch_size then flush p o
    end
  in
  (* store the delivered batches, oldest first; [order] puts the highest
     scores of the delivery first *)
  let receive p =
    match Atomic.exchange p.pt_inbox [] with
    | [] -> ()
    | batches ->
      let msgs = List.concat_map List.rev (List.rev batches) in
      let msgs =
        match order with
        | None -> msgs
        | Some score ->
          List.map (fun m -> (- score m.m_state, m)) msgs
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
          |> List.map snd
      in
      List.iter
        (fun m ->
          if proceed () then
            add_state p m.m_hash m.m_depth m.m_parent m.m_movers m.m_state)
        msgs;
      ignore (Atomic.fetch_and_add pending (- List.length batches))
  in
  let poll p =
    let v = Atomic.get visited in
    if (not par) && v >= t.limit then Some (Runctl.State_budget t.limit)
    else
      match ctl with
      | None -> None
      | Some c when par ->
        let tick = p.pt_ticks in
        p.pt_ticks <- tick + 1;
        Runctl.check_striped c ~visited:v ~tick
      | Some c -> Runctl.check c ~visited:v
  in
  (* the visited count after reserving one expansion, or [-1] when the
     budget is spent *)
  let rec reserve () =
    let v = Atomic.get visited in
    if v >= hard_limit then -1
    else if Atomic.compare_and_set visited v (v + 1) then v + 1
    else reserve ()
  in
  let expand_one p depth e =
    p.pt_expanding <- e.e_id;
    let successors = ref 0 in
    let handle cd st =
      incr successors;
      on_transition cd;
      route p (hash_discrete st.st_locs st.st_vars st.st_mon) (depth + 1)
        e.e_id cd.cd_movers st
    in
    (match expand with
     | None ->
       List.iter
         (fun cd ->
           if proceed () then
             match fire t p.pt_pool e.e_state cd with
             | None -> ()
             | Some st -> handle cd st)
         (candidates t e.e_state)
     | Some f ->
       (* an expansion override produces the whole (candidate, successor)
          list up front; processing still honors [`Stop] exactly like the
          inline path, so verdicts, counters and callback order are
          byte-identical *)
       List.iter
         (fun (cd, succ) ->
           if proceed () then
             match succ with None -> () | Some st -> handle cd st)
         (f p.pt_pool e.e_state));
    p.pt_expanding <- -1;
    if proceed () then
      match on_expanded e.e_state !successors with
      | `Stop -> found e.e_id
      | `Continue -> ()
  in
  let step p =
    match poll p with
    | Some r -> halt (Interrupted r)
    | None ->
      let e = Levels.peek p.pt_waiting in
      let depth = p.pt_waiting.Levels.lo in
      if e.e_dead then Levels.drop p.pt_waiting
      else begin
        let v = reserve () in
        if v < 0 then halt (Interrupted (Runctl.State_budget hard_limit))
        else begin
          Levels.drop p.pt_waiting;
          (match progress with
           | Some hook when p.pt_index = 0 && v mod 1_000 = 0 ->
             hook
               { pr_visited = v;
                 pr_stored =
                   Array.fold_left (fun n q -> n + q.pt_count) stored0 parts;
                 pr_queue =
                   Array.fold_left
                     (fun n q -> n + Levels.length q.pt_waiting)
                     0 parts }
           | Some _ | None -> ());
          expand_one p depth e
        end
      end
  in
  (* out of work: hand every buffered successor over and wait; [true]
     when a batch arrived, [false] when the search is over *)
  let rest p =
    flush_all p;
    Atomic.set p.pt_idle true;
    Atomic.decr pending;
    let rec wait rounds =
      if not (running ()) then false
      else
        match Atomic.get p.pt_inbox with
        | _ :: _ ->
          Atomic.incr pending;
          Atomic.set p.pt_idle false;
          true
        | [] ->
          if Atomic.get pending = 0 then false
          else begin
            if rounds < spin_rounds then Domain.cpu_relax ()
            else
              Unix.sleepf
                (if rounds < spin_rounds + 256 then 0.000_05 else 0.000_5);
            wait (rounds + 1)
          end
    in
    wait 0
  in
  let rec work p =
    if running () then begin
      (match Atomic.get p.pt_inbox with [] -> () | _ :: _ -> receive p);
      if not (Levels.is_empty p.pt_waiting) then begin
        step p;
        if par then
          for o = 0 to jobs - 1 do
            if p.pt_nout.(o) > 0 && Atomic.get parts.(o).pt_idle then flush p o
          done;
        work p
      end
      else if par && rest p then work p
    end
  in
  (match resume with
   | None ->
     supervised (fun () ->
         let initial = initial_state t in
         if not (Zone.Dbm.is_empty initial.st_zone) then begin
           let h =
             hash_discrete initial.st_locs initial.st_vars initial.st_mon
           in
           add_state parts.(owner h) h 0 (-1) [] initial
         end)
   | Some snap ->
     let by_id = Hashtbl.create 4096 in
     List.iter
       (fun se ->
         let st =
           { st_locs = se.se_locs; st_vars = se.se_vars; st_mon = se.se_mon;
             st_zone = Zone.Dbm.of_ints ~dim:snap.snap_dim se.se_zone }
         in
         let e = { e_id = se.se_id; e_state = st; e_dead = false } in
         let h = hash_discrete st.st_locs st.st_vars st.st_mon in
         let p = parts.(owner h) in
         Hashtbl.replace by_id se.se_id (p, e);
         Passed.restore p.pt_passed (node_for p h st) e)
       snap.snap_entries;
     (* the visit callback is NOT replayed for restored states: they were
        considered when first stored, and the caller's accumulator comes
        back through [snap_payload] *)
     Array.iter
       (fun id ->
         let p, e = Hashtbl.find by_id id in
         Levels.push p.pt_waiting 0 e)
       snap.snap_queue);
  if not par then work parts.(0)
  else begin
    let domains =
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> supervised (fun () -> work parts.(i + 1))))
    in
    supervised (fun () -> work parts.(0));
    Array.iter Domain.join domains;
    (* after the join, which orders every domain's writes before these
       reads: an interrupted run stores what was still in flight, so the
       snapshot misses no successor of an expanded entry *)
    if proceed () then
      supervised (fun () ->
          Array.iter flush_all parts;
          Array.iter receive parts)
  end;
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
    { visited = Atomic.get visited;
      stored = Array.fold_left (fun n p -> n + p.pt_count) stored0 parts;
      frontier =
        Array.fold_left
          (fun n p ->
            Levels.fold (fun n e -> if e.e_dead then n else n + 1) n
              p.pt_waiting)
          0 parts }
  in
  (* partition by partition, each node's entries in insertion order and
     each waiting list shallowest first, so at jobs = 1 the queue is the
     FIFO order *)
  let build_snapshot () =
    let entries = ref [] in
    Array.iter
      (fun p ->
        Hashtbl.iter
          (fun _ bucket ->
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
          p.pt_nodes)
      parts;
    let queue =
      Array.fold_left
        (fun acc p ->
          Levels.fold
            (fun acc e -> if e.e_dead then acc else e.e_id :: acc)
            acc p.pt_waiting)
        [] parts
      |> List.rev |> Array.of_list
    in
    let next_id =
      base + (jobs * Array.fold_left (fun n p -> max n p.pt_count) 0 parts)
    in
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
  match Atomic.get stop with
  | Running -> result ()
  | Found id -> result ~chain:(chain_of id) ()
  | Interrupted r -> result ~interrupt:r ~snapshot:(build_snapshot ()) ()
  | Crashed (exn, bt) ->
    (* supervision: the crashing domain has exited and the others wound
       down; the caller sees a diagnosed Unknown, never an escaping
       exception, and no snapshot (the cut may be incoherent) *)
    let b = String.trim bt in
    let diag =
      if b = "" then Printexc.to_string exn
      else Printexc.to_string exn ^ "\n" ^ b
    in
    result ~interrupt:(Runctl.Crash diag) ()

let describe_chain t chain =
  List.map
    (fun movers -> describe t { cd_movers = movers; cd_chan = None })
    chain

type reach_result = {
  r_trace : string list option;
  r_stats : stats;
  r_interrupt : Runctl.reason option;
}

let reachable ?jobs ?expand ?ctl t pred =
  let visit _ st = if pred st then `Stop else `Continue in
  let r = search ?jobs ?expand ?ctl ~label:"reachable" t visit in
  { r_trace = Option.map (describe_chain t) r.sr_chain;
    r_stats = r.sr_stats;
    r_interrupt = r.sr_interrupt }

let safe ?jobs ?ctl t pred =
  let r = reachable ?jobs ?ctl t pred in
  match r.r_trace, r.r_interrupt with
  | Some trace, _ -> (Refuted (Some trace), r.r_stats)
  | None, Some reason -> (Unknown reason, r.r_stats)
  | None, None -> (Proved, r.r_stats)

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

(* The larger of two sups: [Sup_exceeds] dominates, and at equal values
   the non-strict bound wins ([<= v] is the weaker claim). *)
let max_sup a b =
  match a, b with
  | Sup_exceeds c, _ | _, Sup_exceeds c -> Sup_exceeds c
  | Sup_unreached, x | x, Sup_unreached -> x
  | Sup (v1, s1), Sup (v2, s2) ->
    if v1 > v2 then a else if v2 > v1 then b else Sup (v1, s1 && s2)

let sup_clock ?jobs ?expand ?ctl ?resume t ~pred ~clock =
  let ci, ceiling = monitor_clock_info t clock in
  let label = "sup:" ^ clock in
  (* the running sup travels with the snapshot: on interrupt it is
     marshalled into the payload, on resume restored from it, so the
     states considered before the interrupt are not re-visited.  The
     snapshot is validated before its payload is unmarshalled. *)
  let restored =
    match resume with
    | Some snap ->
      check_snapshot t ~label ~subsume:true snap;
      if snap.snap_payload = "" then Sup_unreached
      else (Marshal.from_string snap.snap_payload 0 : sup_result)
    | None -> Sup_unreached
  in
  (* one running sup per partition, each updated only by its owner *)
  let best =
    Array.init (max 1 (Option.value jobs ~default:1)) (fun p ->
        ref (if p = 0 then restored else Sup_unreached))
  in
  let update p st =
    if pred st then begin
      let best = best.(p) in
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
  let merged () =
    Array.fold_left (fun acc b -> max_sup acc !b) Sup_unreached best
  in
  (* max-delay-first: a partition stores the highest monitor-clock
     suprema of a delivery first, so the sup peaks early and subsumption
     prunes the low-delay successors *)
  let order st =
    let b = Zone.Dbm.sup_clock st.st_zone ci in
    if Zone.Bound.is_infinite b then max_int else Zone.Bound.constant b
  in
  let payload () = Marshal.to_string (merged ()) [] in
  let r = search ?jobs ?expand ~order ?ctl ?resume ~label ~payload t update in
  { so_sup = merged ();
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
    no_delay_present t st.st_locs
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
      (fun _ _ -> `Continue)
  in
  { r_trace = Option.map (describe_chain t) r.sr_chain;
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
    let nauts = Array.length comp.Compiled.c_automata in
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
    let invariants locs z =
      Array.iteri
        (fun ai li ->
          apply_dconstraints z
            comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_inv)
        locs
    in
    let blocked locs =
      let rec loop ai =
        ai < nauts
        && ((match comp.Compiled.c_automata.(ai)
                     .Compiled.ca_locs.(locs.(ai)).Compiled.cl_kind
             with
             | Model.Urgent | Model.Committed -> true
             | Model.Normal -> false)
            || loop (ai + 1))
      in
      loop 0
    in
    let dim = comp.Compiled.c_nclocks + 1 in
    let ti = Compiled.clock_index comp tclock in
    let locs =
      ref (Array.map (fun a -> a.Compiled.ca_initial) comp.Compiled.c_automata)
    in
    let vars = ref (Array.copy comp.Compiled.c_var_init) in
    let z = Zone.Dbm.zero dim in
    invariants !locs z;
    if not (blocked !locs) then begin
      Zone.Dbm.up z;
      invariants !locs z
    end;
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
          List.iter
            (fun (_, ce) -> apply_dconstraints z ce.Compiled.ce_guard)
            movers';
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
              { td_desc =
                  describe t { cd_movers = movers; cd_chan = None };
                td_earliest = (lo, lo_strict);
                td_latest = hi }
              :: !steps;
            let next_locs = Array.copy !locs in
            List.iter
              (fun (ai, ce) -> next_locs.(ai) <- ce.Compiled.ce_dst)
              movers';
            vars :=
              List.fold_left
                (fun vals (_, ce) ->
                  Compiled.apply_updates comp vals ce.Compiled.ce_updates)
                !vars movers';
            List.iter
              (fun (_, ce) -> List.iter (Zone.Dbm.reset z) ce.Compiled.ce_resets)
              movers';
            locs := next_locs;
            invariants !locs z;
            if not (blocked !locs) then begin
              Zone.Dbm.up z;
              invariants !locs z
            end;
            if Zone.Dbm.is_empty z then feasible := false
          end
        end)
      chain;
    if !feasible then Some (List.rev !steps) else None

let timed_trace ?jobs t pred =
  let visit _ st = if pred st then `Stop else `Continue in
  match (search ?jobs ~label:"reachable" t visit).sr_chain with
  | None -> None
  | Some chain -> replay t chain

(* --- coverage ----------------------------------------------------------- *)

type coverage = {
  cov_unreached_locations : (string * string) list;
  cov_unfired_edges : string list;
  cov_stats : stats;
}

(* Explore everything, recording which locations were entered and which
   edges fired; the complement is dead model structure worth reviewing. *)
let coverage t =
  let comp = t.comp in
  let nauts = Array.length comp.Compiled.c_automata in
  let seen_locs =
    Array.init nauts (fun ai ->
        Array.make
          (Array.length comp.Compiled.c_automata.(ai).Compiled.ca_locs)
          false)
  in
  let fired : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let visit _ st =
    Array.iteri (fun ai li -> seen_locs.(ai).(li) <- true) st.st_locs;
    `Continue
  in
  let on_transition cd =
    List.iter
      (fun (ai, (ce : Compiled.cedge)) ->
        Hashtbl.replace fired (ai, ce.Compiled.ce_index) ())
      cd.cd_movers
  in
  let stats = (search ~on_transition ~label:"coverage" t visit).sr_stats in
  let unreached = ref [] in
  Array.iteri
    (fun ai seen ->
      let a = comp.Compiled.c_automata.(ai) in
      Array.iteri
        (fun li entered ->
          if not entered then
            unreached :=
              (a.Compiled.ca_name, a.Compiled.ca_locs.(li).Compiled.cl_name)
              :: !unreached)
        seen)
    seen_locs;
  let unfired = ref [] in
  Array.iteri
    (fun ai a ->
      Array.iter
        (List.iter (fun (ce : Compiled.cedge) ->
             if not (Hashtbl.mem fired (ai, ce.Compiled.ce_index)) then
               unfired := Compiled.describe_edge comp ce :: !unfired))
        a.Compiled.ca_out)
    comp.Compiled.c_automata;
  { cov_unreached_locations = List.rev !unreached;
    cov_unfired_edges = List.rev !unfired;
    cov_stats = stats }
