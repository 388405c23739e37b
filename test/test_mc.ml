(* Tests of the zone-graph explorer on small hand-built networks whose
   behavior can be computed by hand. *)

open Ta

let loc = Model.location
let edge = Model.edge

(* One automaton: A (inv x <= 10) --[x >= lo]--> B. *)
let one_step ~lo =
  let a =
    Model.automaton ~name:"P" ~initial:"A"
      [ loc ~inv:[ Clockcons.le "x" 10 ] "A"; loc "B" ]
      [ edge ~guard:[ Clockcons.ge "x" lo ] "A" "B" ]
  in
  Model.network ~name:"one-step" ~clocks:[ "x" ] ~vars:[] ~channels:[] [ a ]

let test_reach_within_invariant () =
  let t = Mc.Explorer.make (one_step ~lo:5) in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"P" ~loc:"B") in
  Alcotest.(check bool) "B reachable" true (r.Mc.Explorer.r_trace <> None)

let test_invariant_blocks () =
  let t = Mc.Explorer.make (one_step ~lo:11) in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"P" ~loc:"B") in
  Alcotest.(check bool) "B unreachable past invariant" true
    (r.Mc.Explorer.r_trace = None)

let test_boundary_reachable () =
  (* Guard exactly at the invariant boundary is still reachable. *)
  let t = Mc.Explorer.make (one_step ~lo:10) in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"P" ~loc:"B") in
  Alcotest.(check bool) "boundary reachable" true (r.Mc.Explorer.r_trace <> None)

(* Two automata on a binary channel; the receiver guards with a clock. *)
let binary_net ~receiver_lo =
  let sender =
    Model.automaton ~name:"S" ~initial:"S0"
      [ loc ~inv:[ Clockcons.le "x" 3 ] "S0"; loc "S1" ]
      [ edge ~sync:(Model.Send "go") "S0" "S1" ]
  in
  let receiver =
    Model.automaton ~name:"R" ~initial:"R0"
      [ loc "R0"; loc "R1" ]
      [ edge
          ~guard:[ Clockcons.ge "y" receiver_lo ]
          ~sync:(Model.Recv "go") "R0" "R1" ]
  in
  Model.network ~name:"binary" ~clocks:[ "x"; "y" ]
    ~vars:[]
    ~channels:[ ("go", Model.Binary) ]
    [ sender; receiver ]

let test_binary_sync () =
  let t = Mc.Explorer.make (binary_net ~receiver_lo:2) in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"R" ~loc:"R1") in
  Alcotest.(check bool) "handshake happens" true (r.Mc.Explorer.r_trace <> None);
  (* Both participants move atomically. *)
  let both st =
    Mc.Explorer.at t ~aut:"R" ~loc:"R1" st
    && Mc.Explorer.at t ~aut:"S" ~loc:"S0" st
  in
  let r2 = Mc.Explorer.reachable t both in
  Alcotest.(check bool) "no half-synchronisation" true
    (r2.Mc.Explorer.r_trace = None)

let test_binary_sync_blocked () =
  (* Receiver needs y >= 5 but sender's invariant forces go before x <= 3;
     both clocks advance together from 0 so the sync can never happen and
     the sender is stuck: S1 unreachable. *)
  let t = Mc.Explorer.make (binary_net ~receiver_lo:5) in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"S" ~loc:"S1") in
  Alcotest.(check bool) "sync blocked by receiver guard" true
    (r.Mc.Explorer.r_trace = None)

(* Broadcast: sender proceeds regardless; enabled receivers join. *)
let broadcast_net ~listening =
  let sender =
    Model.automaton ~name:"S" ~initial:"S0"
      [ loc "S0"; loc "S1" ]
      [ edge ~sync:(Model.Send "b") "S0" "S1" ]
  in
  let receiver =
    Model.automaton ~name:"R" ~initial:"R0"
      [ loc "R0"; loc "R1" ]
      [ edge
          ~pred:(if listening then Expr.True else Expr.False)
          ~sync:(Model.Recv "b") "R0" "R1" ]
  in
  Model.network ~name:"broadcast" ~clocks:[] ~vars:[]
    ~channels:[ ("b", Model.Broadcast) ]
    [ sender; receiver ]

let test_broadcast_delivery () =
  let t = Mc.Explorer.make (broadcast_net ~listening:true) in
  let got st =
    Mc.Explorer.at t ~aut:"S" ~loc:"S1" st && Mc.Explorer.at t ~aut:"R" ~loc:"R1" st
  in
  let r = Mc.Explorer.reachable t got in
  Alcotest.(check bool) "receiver joins broadcast" true
    (r.Mc.Explorer.r_trace <> None);
  (* The enabled receiver *must* participate: S1 with R still at R0 is
     unreachable. *)
  let skipped st =
    Mc.Explorer.at t ~aut:"S" ~loc:"S1" st && Mc.Explorer.at t ~aut:"R" ~loc:"R0" st
  in
  let r2 = Mc.Explorer.reachable t skipped in
  Alcotest.(check bool) "enabled receiver cannot be skipped" true
    (r2.Mc.Explorer.r_trace = None)

let test_broadcast_nonblocking () =
  let t = Mc.Explorer.make (broadcast_net ~listening:false) in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"S" ~loc:"S1") in
  Alcotest.(check bool) "send proceeds without receiver" true
    (r.Mc.Explorer.r_trace <> None)

(* Committed locations take priority over other automata's moves. *)
let committed_net () =
  let hot =
    Model.automaton ~name:"Hot" ~initial:"H0"
      [ loc "H0"; loc ~kind:Model.Committed "H1"; loc "H2" ]
      [ edge ~updates:[ ("step", Expr.int 1) ] "H0" "H1";
        edge ~updates:[ ("step", Expr.int 2) ] "H1" "H2" ]
  in
  let other =
    Model.automaton ~name:"Other" ~initial:"O0"
      [ loc "O0"; loc "O1" ]
      [ edge
          ~pred:(Expr.var_eq "step" 1)
          ~updates:[ ("interleaved", Expr.int 1) ]
          "O0" "O1" ]
  in
  Model.network ~name:"committed" ~clocks:[]
    ~vars:[ ("step", Model.int_var 0); ("interleaved", Model.flag ()) ]
    ~channels:[] [ hot; other ]

let test_committed_atomicity () =
  let t = Mc.Explorer.make (committed_net ()) in
  (* Other can only move while step = 1, i.e. while Hot sits in the
     committed H1 — which the committed semantics forbids. *)
  let interleaved st = Mc.Explorer.var_value t "interleaved" st = 1 in
  let r = Mc.Explorer.reachable t interleaved in
  Alcotest.(check bool) "no interleaving through committed" true
    (r.Mc.Explorer.r_trace = None);
  let done_ st = Mc.Explorer.at t ~aut:"Hot" ~loc:"H2" st in
  let r2 = Mc.Explorer.reachable t done_ in
  Alcotest.(check bool) "committed sequence completes" true
    (r2.Mc.Explorer.r_trace <> None)

(* Urgent locations stop time: a clock guard needing delay is unreachable. *)
let test_urgent_blocks_delay () =
  let a =
    Model.automaton ~name:"U" ~initial:"U0"
      [ loc ~kind:Model.Urgent "U0"; loc "U1" ]
      [ edge ~guard:[ Clockcons.ge "x" 1 ] "U0" "U1" ]
  in
  let net =
    Model.network ~name:"urgent" ~clocks:[ "x" ] ~vars:[] ~channels:[] [ a ]
  in
  let t = Mc.Explorer.make net in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"U" ~loc:"U1") in
  Alcotest.(check bool) "no delay in urgent location" true
    (r.Mc.Explorer.r_trace = None)

(* Bounded integer variables: counting to three. *)
let test_counter () =
  let a =
    Model.automaton ~name:"C" ~initial:"L"
      [ loc "L"; loc "Done" ]
      [ edge
          ~pred:Expr.(lt (var "n") (int 3))
          ~updates:[ ("n", Expr.(var "n" + int 1)) ]
          "L" "L";
        edge ~pred:(Expr.var_eq "n" 3) "L" "Done" ]
  in
  let net =
    Model.network ~name:"counter" ~clocks:[]
      ~vars:[ ("n", Model.int_var ~min:0 ~max:3 0) ]
      ~channels:[] [ a ]
  in
  let t = Mc.Explorer.make net in
  let r =
    Mc.Explorer.reachable t (fun st ->
        Mc.Explorer.at t ~aut:"C" ~loc:"Done" st
        && Mc.Explorer.var_value t "n" st = 3)
  in
  (match r.Mc.Explorer.r_trace with
   | Some steps -> Alcotest.(check int) "trace length" 4 (List.length steps)
   | None -> Alcotest.fail "counter never completed")

(* sup-query through a delay monitor: the classic request/response chain.
   Env sends req at any time; worker responds within [2, 8]. *)
let req_resp_net ~lo ~hi =
  let env =
    Model.automaton ~name:"Env" ~initial:"E0"
      [ loc "E0"; loc "E1"; loc "E2" ]
      [ edge ~sync:(Model.Send "req") ~resets:[ "e" ] "E0" "E1";
        edge ~sync:(Model.Recv "resp") "E1" "E2" ]
  in
  let worker =
    Model.automaton ~name:"W" ~initial:"W0"
      [ loc "W0"; loc ~inv:[ Clockcons.le "w" hi ] "W1"; loc "W2" ]
      [ edge ~sync:(Model.Recv "req") ~resets:[ "w" ] "W0" "W1";
        edge
          ~guard:[ Clockcons.ge "w" lo ]
          ~sync:(Model.Send "resp") "W1" "W2" ]
  in
  Model.network ~name:"req-resp" ~clocks:[ "e"; "w" ]
    ~vars:[]
    ~channels:[ ("req", Model.Broadcast); ("resp", Model.Broadcast) ]
    [ env; worker ]

let test_sup_delay () =
  let monitor =
    Mc.Monitor.delay ~trigger:"req" ~response:"resp" ~clock:"mon" ~ceiling:100 ()
  in
  let t = Mc.Explorer.make ~monitor (req_resp_net ~lo:2 ~hi:8) in
  let sup =
    (Mc.Explorer.sup_clock t ~pred:(Mc.Explorer.mon_in t "Waiting")
       ~clock:"mon").Mc.Explorer.so_sup
  in
  (match sup with
   | Mc.Explorer.Sup (v, strict) ->
     Alcotest.(check int) "max delay is the invariant bound" 8 v;
     Alcotest.(check bool) "inclusive" false strict
   | Mc.Explorer.Sup_unreached -> Alcotest.fail "monitor never triggered"
   | Mc.Explorer.Sup_exceeds _ -> Alcotest.fail "bounded delay reported unbounded")

(* As [req_resp_net] but without any invariant on W1: the response may be
   postponed forever. *)
let req_resp_unbounded ~lo =
  let env =
    Model.automaton ~name:"Env" ~initial:"E0"
      [ loc "E0"; loc "E1"; loc "E2" ]
      [ edge ~sync:(Model.Send "req") ~resets:[ "e" ] "E0" "E1";
        edge ~sync:(Model.Recv "resp") "E1" "E2" ]
  in
  let worker =
    Model.automaton ~name:"W" ~initial:"W0"
      [ loc "W0"; loc "W1"; loc "W2" ]
      [ edge ~sync:(Model.Recv "req") ~resets:[ "w" ] "W0" "W1";
        edge
          ~guard:[ Clockcons.ge "w" lo ]
          ~sync:(Model.Send "resp") "W1" "W2" ]
  in
  Model.network ~name:"req-resp-unbounded" ~clocks:[ "e"; "w" ]
    ~vars:[]
    ~channels:[ ("req", Model.Broadcast); ("resp", Model.Broadcast) ]
    [ env; worker ]

let test_sup_unbounded_reported () =
  let monitor =
    Mc.Monitor.delay ~trigger:"req" ~response:"resp" ~clock:"mon" ~ceiling:50 ()
  in
  let t = Mc.Explorer.make ~monitor (req_resp_unbounded ~lo:2) in
  let sup =
    (Mc.Explorer.sup_clock t ~pred:(Mc.Explorer.mon_in t "Waiting")
       ~clock:"mon").Mc.Explorer.so_sup
  in
  (match sup with
   | Mc.Explorer.Sup_exceeds _ -> ()
   | Mc.Explorer.Sup (v, _) ->
     Alcotest.failf "expected ceiling overflow, got %d" v
   | Mc.Explorer.Sup_unreached -> Alcotest.fail "monitor never triggered")

let test_sup_lower_bound_exact () =
  (* With lo = hi the delay is deterministic. *)
  let monitor =
    Mc.Monitor.delay ~trigger:"req" ~response:"resp" ~clock:"mon" ~ceiling:100 ()
  in
  let t = Mc.Explorer.make ~monitor (req_resp_net ~lo:5 ~hi:5) in
  let sup =
    (Mc.Explorer.sup_clock t ~pred:(Mc.Explorer.mon_in t "Waiting")
       ~clock:"mon").Mc.Explorer.so_sup
  in
  (match sup with
   | Mc.Explorer.Sup (v, _) -> Alcotest.(check int) "deterministic delay" 5 v
   | _ -> Alcotest.fail "expected a bounded sup")

let test_safe () =
  let t = Mc.Explorer.make (one_step ~lo:5) in
  let r = Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"P" ~loc:"B") in
  (match r.Mc.Explorer.r_trace with
   | Some trace ->
     Alcotest.(check bool) "counterexample non-empty" true (trace <> [])
   | None -> Alcotest.fail "B is reachable so not safe");
  let t2 = Mc.Explorer.make (one_step ~lo:11) in
  let r2 = Mc.Explorer.reachable t2 (Mc.Explorer.at t2 ~aut:"P" ~loc:"B") in
  Alcotest.(check bool) "B unreachable so safe" true
    (r2.Mc.Explorer.r_trace = None && r2.Mc.Explorer.r_interrupt = None)

let test_search_limit () =
  (* An unbounded counter would explode; the limit must interrupt the
     search with a three-valued answer, not an exception. *)
  let a =
    Model.automaton ~name:"C" ~initial:"L"
      [ loc "L" ]
      [ edge
          ~pred:Expr.(lt (var "n") (int 100_000))
          ~updates:[ ("n", Expr.(var "n" + int 1)) ]
          "L" "L" ]
  in
  let net =
    Model.network ~name:"big" ~clocks:[]
      ~vars:[ ("n", Model.int_var ~min:0 ~max:100_000 0) ]
      ~channels:[] [ a ]
  in
  let t = Mc.Explorer.make ~limit:50 net in
  let r = Mc.Explorer.reachable t (fun _ -> false) in
  Alcotest.(check bool) "interrupted at the state limit" true
    (r.Mc.Explorer.r_interrupt = Some (Mc.Runctl.State_budget 50));
  Alcotest.(check bool) "no witness claimed" true (r.Mc.Explorer.r_trace = None);
  Alcotest.(check bool) "visited stopped at the limit" true
    (r.Mc.Explorer.r_stats.Mc.Explorer.visited <= 50)

(* --- passed-list store ------------------------------------------------- *)

module P = Mc.Explorer.Passed

let state_of z =
  { Mc.Explorer.st_locs = [| 0 |]; st_vars = [||]; st_mon = 0; st_zone = z }

(* Short trails give coarse zones, so a sequence has many nested pairs. *)
let arb_zone_seq =
  let open QCheck.Gen in
  let zone = list_size (int_range 0 4) Gen.gen_dbm_op in
  QCheck.make
    ~print:
      Fmt.(to_to_string (list ~sep:cut (brackets (list ~sep:semi Gen.pp_dbm_op))))
    (list_size (int_range 1 40) zone)

(* What one run of the store against the reference reached. *)
type store_run = {
  max_slots : int;   (* most slots a node used, holes included *)
  compactions : int; (* stores after which the node used no more slots *)
}

(* The store against a naive reference on one discrete state: a list,
   newest first, checked for a cover with [List.exists], then (when
   subsuming) filtered of the entries the newcomer includes.  After
   every step the covered decision, the live ids and the dead flags of
   every entry stored so far must agree, and the pool must hold exactly
   the zones the step gave up: the newcomer's when covered, else every
   victim's but the one being expanded.  The expanded id rotates over a
   victim, a surviving entry and none.  [max_const] sizes the keys'
   lanes, as the largest extrapolation constant does in a search. *)
let store_matches_reference ~subsume ~max_const ~dim zones =
  let pool = Zone.Dbm.Pool.create dim in
  let p = P.create ~subsume ~max_const pool in
  let zones = List.filter (fun z -> not (Zone.Dbm.is_empty z)) zones in
  let node = P.node ~hash:0 (state_of (Zone.Dbm.zero dim)) in
  let live = ref [] and dead = Hashtbl.create 64 and entries = ref [] in
  let max_slots = ref 0 and compactions = ref 0 in
  let ids l = List.sort compare (List.map fst l) in
  (* drain the pool: [given_up] in some order, then a fresh matrix *)
  let check_pool id given_up =
    let left = ref given_up in
    List.iter
      (fun _ ->
        let z = Zone.Dbm.Pool.copy pool (Zone.Dbm.zero dim) in
        if not (List.memq z !left) then
          QCheck.Test.fail_reportf "step %d: pool returned a zone not given up"
            id;
        left := List.filter (fun y -> y != z) !left)
      given_up;
    let z = Zone.Dbm.Pool.copy pool (Zone.Dbm.zero dim) in
    if List.memq z zones then
      QCheck.Test.fail_reportf "step %d: pool holds a zone not given up" id
  in
  List.iteri
    (fun id z ->
      let covers (_, y) =
        if subsume then Zone.Dbm.includes y z else Zone.Dbm.equal y z
      in
      let covered = List.exists covers !live in
      let victims, kept =
        if covered || not subsume then ([], !live)
        else List.partition (fun (_, y) -> Zone.Dbm.includes z y) !live
      in
      let expanding =
        match (id mod 3, victims, kept) with
        | 0, (v, _) :: _, _ | 1, _, (v, _) :: _ -> v
        | _ -> -1
      in
      if not covered then begin
        List.iter (fun (v, _) -> Hashtbl.replace dead v ()) victims;
        live := (id, z) :: kept
      end;
      let slots_before = P.slots node in
      (match P.add p node ~expanding ~id (state_of z) with
       | None ->
         if not covered then QCheck.Test.fail_reportf "step %d: store covered it" id
       | Some e ->
         if covered then QCheck.Test.fail_reportf "step %d: store kept it" id;
         entries := e :: !entries);
      let slots = P.slots node in
      max_slots := max !max_slots slots;
      if (not covered) && slots <= slots_before then incr compactions;
      check_pool id
        (if covered then [ z ]
         else
           List.filter_map
             (fun (v, y) -> if v = expanding then None else Some y)
             victims);
      let store_live = List.sort compare (List.map P.entry_id (P.live node)) in
      if store_live <> ids !live then
        QCheck.Test.fail_reportf "step %d: live sets differ" id;
      List.iter
        (fun e ->
          if P.entry_dead e <> Hashtbl.mem dead (P.entry_id e) then
            QCheck.Test.fail_reportf "step %d: entry %d dead flag differs" id
              (P.entry_id e))
        !entries)
    zones;
  { max_slots = !max_slots; compactions = !compactions }

let prop_store ~subsume seq =
  ignore
    (store_matches_reference ~subsume ~max_const:8 ~dim:Gen.dbm_dims
       (List.map Gen.build_dbm seq)
      : store_run);
  true

let prop_store_subsume =
  QCheck.Test.make ~name:"passed store = reference (inclusion)" ~count:500
    arb_zone_seq (prop_store ~subsume:true)

let prop_store_equality =
  QCheck.Test.make ~name:"passed store = reference (equality)" ~count:200
    arb_zone_seq (prop_store ~subsume:false)

(* A search's node table starts small and grows; its snapshot walks it
   in the order of the bigger table it once created (4096 buckets), and
   that order fixes a checkpoint's bytes.  Key sets above 8192 make even
   the 4096-bucket table grow. *)
let arb_distinct_keys =
  let open QCheck.Gen in
  let keys =
    list_size (oneof [ int_range 0 600; int_range 8193 20_000 ]) int
    >|= fun ks ->
    let seen = Hashtbl.create 64 in
    List.filter
      (fun k ->
        let fresh = not (Hashtbl.mem seen k) in
        Hashtbl.replace seen k ();
        fresh)
      ks
  in
  QCheck.make
    ~print:(fun ks -> Printf.sprintf "%d keys" (List.length ks))
    keys

let prop_walk_as =
  QCheck.Test.make ~name:"walk_as = iter of a table created bigger"
    ~count:60 arb_distinct_keys (fun keys ->
      let filled size =
        let t = Hashtbl.create size in
        List.iteri (fun i k -> Hashtbl.replace t k i) keys;
        t
      in
      let walk t = List.of_seq (Hashtbl.to_seq t) in
      let small = filled 16 in
      List.for_all
        (fun size -> Mc.Explorer.walk_as ~size small = walk (filled size))
        [ 256; 4096 ])

(* Dim-9 zones (gpca-psm-mc's size) in long sequences, so nodes fill
   several summarised blocks and compact.  A zone delays and resets the
   eight clocks in turn (x1 >= x2 >= ... >= x8), then boxes each clock
   with probability 9 in 10 into a narrow random window: such zones are
   mostly incomparable, a wide antichain.  One zone in 12 boxes only a
   few clocks, in wide windows, and kills a share of the node.  Every
   constant is a multiple of [scale], at most [24 * scale]. *)
let arb_wide_zone_seq ?(scale = 1) () =
  let open QCheck.Gen in
  let box ~p ~width i =
    let* on = float_bound_inclusive 1.0 in
    if on >= p then return []
    else
      let* lo = int_range 0 12 and* w = int_range 0 width in
      return
        [ Gen.Op_constrain (0, i, false, -lo * scale);
          Gen.Op_constrain (i, 0, false, (lo + w) * scale) ]
  in
  let stair =
    List.concat_map
      (fun i -> [ Gen.Op_up; Gen.Op_reset (i + 1) ])
      (List.init 8 Fun.id)
    @ [ Gen.Op_up ]
  in
  let zone =
    let* wide = int_range 0 11 in
    let p, width = if wide = 0 then (0.3, 12) else (0.9, 3) in
    let+ boxes = flatten_l (List.init 8 (fun i -> box ~p ~width (i + 1))) in
    stair @ List.concat boxes
  in
  QCheck.make
    ~print:(fun seq -> Printf.sprintf "<%d dim-9 zones>" (List.length seq))
    (list_size (int_range 100 300) zone)

(* The store against the reference at scale; the run must also show
   that the generator reaches what it is for: some cases fill three
   blocks, and some compact. *)
let test_store_at_scale () =
  let blocks = ref 0 and compacted = ref 0 in
  let prop seq =
    let r =
      store_matches_reference ~subsume:true ~max_const:24
        ~dim:Gen.dbm_dims_wide (List.map Gen.build_dbm_wide seq)
    in
    if r.max_slots >= 3 * P.block then incr blocks;
    if r.compactions > 0 then incr compacted;
    true
  in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 0x5107e; 9 |])
    (QCheck.Test.make ~name:"passed store = reference (dim 9, long)" ~count:60
       (arb_wide_zone_seq ()) prop);
  Alcotest.(check bool)
    (Printf.sprintf "cases filling 3 blocks (%d) and compacting (%d)" !blocks
       !compacted)
    true
    (!blocks > 0 && !compacted > 0)

(* The same at constants past one 15-bit lane: the zones' constants run
   to 48000 in steps of 2000, and the keys are laid out for constants up
   to 9000, so the lanes are wider than 15 bits and the bounds far past
   9000 clamp, at both ends. *)
let test_store_wide_lanes () =
  let max_const = 9000 in
  let fmt = Zone.Dbm.Key.make ~dim:Gen.dbm_dims_wide ~max_const in
  let lane = Zone.Dbm.Key.lane fmt in
  let top = lane Zone.Bound.infinity in
  let high = ref 0 and low = ref 0 in
  let prop seq =
    let zones = List.map Gen.build_dbm_wide seq in
    List.iter
      (fun z ->
        for i = 1 to Gen.dbm_dims_wide - 1 do
          let up = Zone.Dbm.get z i 0 and down = Zone.Dbm.get z 0 i in
          if up <> Zone.Bound.infinity
             && lane (up - 1) = top - 1
          then incr high;
          if down < Zone.Bound.lt (-max_const) then incr low
        done)
      zones;
    ignore
      (store_matches_reference ~subsume:true ~max_const
         ~dim:Gen.dbm_dims_wide zones
        : store_run);
    true
  in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 0x5107e; 15 |])
    (QCheck.Test.make ~name:"passed store = reference (wide lanes)" ~count:30
       (arb_wide_zone_seq ~scale:2000 ()) prop);
  Alcotest.(check bool) "lanes wider than 15 bits" true
    (Zone.Dbm.Key.width fmt > 15);
  Alcotest.(check bool)
    (Printf.sprintf "bounds clamped above (%d) and below (%d)" !high !low)
    true
    (!high > 0 && !low > 0)

(* A successor may subsume its own parent (a move that frees a clock):
   the parent dies, but its zone must not return to the pool while it
   is being expanded, or the next scratch copy would overwrite it under
   the remaining candidates.  A subsumed entry that is not being
   expanded does return its zone. *)
let test_store_keeps_expanding_zone () =
  let point () = Zone.Dbm.zero 2 in
  let delayed () =
    let z = Zone.Dbm.zero 2 in
    Zone.Dbm.up z;
    z
  in
  let run ~expanding =
    let pool = Zone.Dbm.Pool.create 2 in
    let p = P.create ~subsume:true ~max_const:0 pool in
    let node = P.node ~hash:0 (state_of (point ())) in
    let parent_zone = point () in
    let parent =
      Option.get (P.add p node ~expanding:(-1) ~id:0 (state_of parent_zone))
    in
    let child = P.add p node ~expanding ~id:1 (state_of (delayed ())) in
    Alcotest.(check bool) "successor stored" true (child <> None);
    Alcotest.(check bool) "parent subsumed" true (P.entry_dead parent);
    Alcotest.(check (list int)) "only the successor is live" [ 1 ]
      (List.map P.entry_id (P.live node));
    (parent_zone, Zone.Dbm.Pool.copy pool (delayed ()))
  in
  let parent_zone, scratch = run ~expanding:0 in
  Alcotest.(check bool) "expanding zone not handed out again" false
    (scratch == parent_zone);
  Alcotest.(check bool) "expanding zone intact" true
    (Zone.Dbm.equal parent_zone (point ()));
  let parent_zone, scratch = run ~expanding:(-1) in
  Alcotest.(check bool) "other subsumed zone reused" true
    (scratch == parent_zone)

(* --- replay of recorded successors ------------------------------------- *)

(* [admit_pre] rebuilds a successor from the zone [fire_pre] recorded
   before extrapolation (the per-layer benchmarks time the two apart).  Extrapolation re-closes
   only the entries it loosens, which is exact only on a canonical
   input, so this checks over a whole GPCA PSM exploration (Table I's
   input-delay query) that every recorded zone replays to [fire]'s
   successor byte for byte. *)
let test_admit_pre_replays_fire () =
  let params = Gpca.Params.default in
  let psm = (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net in
  let ceiling =
    2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc
  in
  let monitor =
    Mc.Monitor.delay ~trigger:Gpca.Model.bolus_req
      ~response:(Transform.Names.input_chan Gpca.Model.bolus_req)
      ~clock:Mc.Query.delay_monitor_clock ~ceiling ()
  in
  let t = Mc.Explorer.make ~monitor psm in
  let replayed = ref 0 in
  let check_replay pool st cd succ =
    let zone (s : Mc.Explorer.state) = Zone.Dbm.to_ints s.st_zone in
    match (Mc.Explorer.fire_pre t pool st cd, succ) with
    | Mc.Explorer.Fired_dead, None -> ()
    | Mc.Explorer.Fired_live { fl_state; fl_locs; fl_vars; fl_mon; fl_pre }, _
      ->
      let admitted =
        Mc.Explorer.admit_pre t ~locs:fl_locs ~vars:fl_vars ~mon:fl_mon
          ~pre:fl_pre
      in
      (match (admitted, succ) with
       | Some (a : Mc.Explorer.state), Some (s : Mc.Explorer.state) ->
         incr replayed;
         if
           a.st_locs <> s.st_locs || a.st_vars <> s.st_vars
           || a.st_mon <> s.st_mon || zone a <> zone s
         then Alcotest.fail "admit_pre differs from fire"
       | None, None -> ()
       | Some _, None | None, Some _ ->
         Alcotest.fail "admit_pre and fire disagree on emptiness");
      Option.iter
        (fun (s : Mc.Explorer.state) -> Zone.Dbm.Pool.release pool s.st_zone)
        fl_state
    | Mc.Explorer.Fired_dead, Some _ ->
      Alcotest.fail "fire_pre dead where fire is live"
  in
  let expand pool st =
    List.map
      (fun cd ->
        let succ = Mc.Explorer.fire t pool st cd in
        check_replay pool st cd succ;
        (cd, succ))
      (Mc.Explorer.candidates t st)
  in
  let o =
    Mc.Explorer.sup_clock ~expand t
      ~pred:(Mc.Explorer.mon_in t "Waiting")
      ~clock:Mc.Query.delay_monitor_clock
  in
  (match o.Mc.Explorer.so_sup with
   | Mc.Explorer.Sup (490, _) -> ()
   | sup ->
     Alcotest.failf "input delay: expected sup 490, got %a"
       Mc.Explorer.pp_sup_result sup);
  Alcotest.(check bool) "successors replayed" true (!replayed > 1000)

(* --- candidate order ---------------------------------------------------- *)

(* [Explorer.candidates] against the closure-based enumeration it
   replaced ([Ref_candidates]), on every state a search stores: equal
   lists, in order, of movers as (automaton, edge index) and channel.
   Returns the states checked, the most movers in one candidate and the
   states with a committed location. *)
let check_candidates name ?monitor net =
  let t = Mc.Explorer.make ?monitor net in
  let comp = Mc.Explorer.compiled t in
  let reference = Ref_candidates.tables comp in
  let states = ref 0 and widest = ref 0 and committed = ref 0 in
  let committed_at ai li =
    comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_kind
    = Model.Committed
  in
  let visit (st : Mc.Explorer.state) =
    incr states;
    if Array.exists Fun.id (Array.mapi committed_at st.st_locs) then
      incr committed;
    let got =
      List.map
        (fun (cd : Mc.Explorer.candidate) ->
          ( List.map (fun (ai, ce) -> (ai, ce.Compiled.ce_index)) cd.cd_movers,
            cd.cd_chan ))
        (Mc.Explorer.candidates t st)
    in
    if got <> Ref_candidates.candidates reference st then
      Alcotest.failf "%s: candidates differ from the reference in state %d"
        name !states;
    List.iter (fun (ms, _) -> widest := max !widest (List.length ms)) got;
    `Continue
  in
  let r = Mc.Explorer.search ~label:"candidates" t visit in
  if r.Mc.Explorer.sr_interrupt <> None then
    Alcotest.failf "%s: search interrupted" name;
  (!states, !widest, !committed)

(* Every order the enumeration fixes, in one state: two tau edges, two
   senders on a binary and on a broadcast channel in one automaton, and
   receivers with one or two edges per automaton on each. *)
let orders_net () =
  let loops name edges =
    Model.automaton ~name ~initial:"L" [ loc "L" ]
      (List.map (fun sync -> edge ?sync "L" "L") edges)
  in
  let send c = Some (Model.Send c) and recv c = Some (Model.Recv c) in
  Model.network ~name:"orders" ~clocks:[] ~vars:[]
    ~channels:[ ("a", Model.Binary); ("b", Model.Broadcast) ]
    [ loops "S" [ None; send "a"; send "b"; None; send "a"; send "b" ];
      loops "R1" [ recv "a"; recv "b"; recv "a"; recv "b" ];
      loops "R2" [ recv "b"; recv "a"; recv "b" ] ]

let delay_monitor ~trigger ~response ~ceiling =
  Mc.Monitor.delay ~trigger ~response ~clock:Mc.Query.delay_monitor_clock
    ~ceiling ()

let gpca_psm () =
  (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only Gpca.Params.default)
    .Transform.psm_net

let test_candidate_order () =
  let add (s, w, c) (s', w', c') = (s + s', max w w', c + c') in
  let gpca =
    check_candidates "gpca-psm-mc"
      ~monitor:
        (delay_monitor ~trigger:Gpca.Model.bolus_req
           ~response:Gpca.Model.start_infusion ~ceiling:2000)
      (gpca_psm ())
  in
  let railroad =
    List.fold_left add (0, 0, 0)
      (List.map
         (fun (name, headway, invocation) ->
           check_candidates name
             ~monitor:
               (delay_monitor ~trigger:"m_Train" ~response:"c_GateDown"
                  ~ceiling:320)
             (Test_runctl.railroad_psm ~headway ~invocation ()))
         [ ("railroad-event", 300, Scheme.Aperiodic 0);
           ("railroad-periodic25", 300, Scheme.Periodic 25);
           ("railroad-race", 0, Scheme.Aperiodic 0) ])
  in
  let fan_in =
    List.fold_left add (0, 0, 0)
      (List.init 12 (fun index ->
           let i = Diff.Gen.instance ~seed:42 ~index Diff.Gen.Fan_in in
           check_candidates i.Diff.Gen.id
             ~monitor:
               (delay_monitor ~trigger:i.Diff.Gen.trigger
                  ~response:i.Diff.Gen.response ~ceiling:i.Diff.Gen.ceiling)
             i.Diff.Gen.net))
  in
  let committed = check_candidates "committed" (committed_net ()) in
  let orders = check_candidates "orders" (orders_net ()) in
  List.iter
    (fun (name, (states, widest, _)) ->
      if states < 10 || widest < 2 then
        Alcotest.failf "%s: %d states, at most %d movers" name states widest)
    [ ("gpca", gpca); ("railroad", railroad); ("fan-in", fan_in) ];
  let _, fan_widest, fan_committed = fan_in and _, _, hot = committed in
  let _, orders_widest, _ = orders in
  Alcotest.(check bool) "broadcasts with two receivers" true
    (fan_widest >= 3 && orders_widest = 3);
  Alcotest.(check bool) "committed states checked" true
    (fan_committed > 0 && hot > 0)

(* --- successor tables ------------------------------------------------------ *)

(* The search fires a node's candidates through its successor table,
   whose discrete halves are computed once per discrete state; [uncached]
   is the same expansion rebuilt for every zone from [candidates] and
   [fire], as the benchmarks' [~expand] hook does. *)
let uncached t pool st =
  List.map
    (fun cd -> (cd, Mc.Explorer.fire t pool st cd))
    (Mc.Explorer.candidates t st)

(* Every state the search stores, in storage order (the k-th one is
   entry k, so the order pins the ids), with a copy of its zone
   taken before a later zone can subsume it and recycle the original. *)
let stored_states ?expand t =
  let seen = ref [] in
  let visit (st : Mc.Explorer.state) =
    seen :=
      (st.st_locs, st.st_vars, st.st_mon, Zone.Dbm.copy st.st_zone) :: !seen;
    `Continue
  in
  let r = Mc.Explorer.search ?expand ~label:"tables" t visit in
  if r.Mc.Explorer.sr_interrupt <> None then
    Alcotest.fail "successor tables: search interrupted";
  (List.rev !seen, r.Mc.Explorer.sr_stats)

let check_tables name t =
  let cached, cstats = stored_states t in
  let hooked, hstats = stored_states ~expand:(uncached t) t in
  let rec walk k = function
    | [], [] -> ()
    | (l, v, m, z) :: cs, (l', v', m', z') :: hs ->
      if l <> l' || v <> v' || m <> m' || not (Zone.Dbm.equal z z') then
        Alcotest.failf "%s: stored state %d differs from the uncached search"
          name k;
      walk (k + 1) (cs, hs)
    | _ ->
      Alcotest.failf "%s: %d states stored, %d by the uncached search" name
        (List.length cached) (List.length hooked)
  in
  walk 0 (cached, hooked);
  if cstats <> hstats then
    Alcotest.failf "%s: stats differ from the uncached search" name

(* One location that sends [m] and [c] forever: the delay monitor's state
   is not a function of the locations, so one discrete (locs, vars) pair
   has a node per monitor state, and their successors differ. *)
let free_running () =
  let p =
    Model.automaton ~name:"P" ~initial:"L"
      [ loc ~inv:[ Clockcons.le "x" 10 ] "L" ]
      [ edge ~guard:[ Clockcons.ge "x" 2 ] ~sync:(Model.Send "m")
          ~resets:[ "x" ] "L" "L";
        edge ~guard:[ Clockcons.ge "x" 1 ] ~sync:(Model.Send "c") "L" "L" ]
  in
  Model.network ~name:"free-running" ~clocks:[ "x" ] ~vars:[]
    ~channels:[ ("m", Model.Broadcast); ("c", Model.Broadcast) ]
    [ p ]

let test_successor_tables () =
  let monitored ~trigger ~response ~ceiling net =
    Mc.Explorer.make ~monitor:(delay_monitor ~trigger ~response ~ceiling) net
  in
  check_tables "gpca-psm-mc"
    (monitored ~trigger:Gpca.Model.bolus_req
       ~response:Gpca.Model.start_infusion ~ceiling:2000 (gpca_psm ()));
  List.iter
    (fun (name, headway, invocation) ->
      check_tables name
        (monitored ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320
           (Test_runctl.railroad_psm ~headway ~invocation ())))
    [ ("railroad-event", 300, Scheme.Aperiodic 0);
      ("railroad-periodic25", 300, Scheme.Periodic 25);
      ("railroad-race", 0, Scheme.Aperiodic 0) ];
  List.iter
    (fun index ->
      let shape =
        List.nth Diff.Gen.all_shapes
          (index mod List.length Diff.Gen.all_shapes)
      in
      let i = Diff.Gen.instance ~seed:42 ~index shape in
      check_tables i.Diff.Gen.id
        (monitored ~trigger:i.Diff.Gen.trigger ~response:i.Diff.Gen.response
           ~ceiling:i.Diff.Gen.ceiling i.Diff.Gen.net))
    (List.init 12 Fun.id);
  check_tables "free-running"
    (monitored ~trigger:"m" ~response:"c" ~ceiling:100 (free_running ()));
  check_tables "orders" (Mc.Explorer.make (orders_net ()))

(* A firing's discrete half, updates included, is computed only once its
   guarded zone is non-empty: an out-of-range update behind guards no
   zone meets never runs, whether one guard misses outright ([x >= 5]
   under [x <= 3]) or only their conjunction is empty; behind a guard
   some zone meets it raises from the search. *)
let test_lazy_discrete_half () =
  let net guard =
    let a =
      Model.automaton ~name:"P" ~initial:"A"
        [ loc ~inv:[ Clockcons.le "x" 3 ] "A"; loc "B" ]
        [ edge ~guard ~updates:[ ("v", Expr.int 5) ] "A" "B" ]
    in
    Model.network ~name:"lazy" ~clocks:[ "x" ]
      ~vars:[ ("v", Model.int_var ~min:0 ~max:2 0) ]
      ~channels:[] [ a ]
  in
  let reach guard =
    let t = Mc.Explorer.make (net guard) in
    Mc.Explorer.reachable t (Mc.Explorer.at t ~aut:"P" ~loc:"B")
  in
  List.iter
    (fun (name, guard) ->
      match reach guard with
      | r ->
        Alcotest.(check bool) (name ^ ": B unreachable") true
          (r.Mc.Explorer.r_trace = None && r.Mc.Explorer.r_interrupt = None)
      | exception Compiled.Compile_error msg ->
        Alcotest.failf "%s: the update ran behind a dead guard: %s" name msg)
    [ ("x >= 5", [ Clockcons.ge "x" 5 ]);
      ("x >= 2 && x <= 1", [ Clockcons.ge "x" 2; Clockcons.le "x" 1 ]) ];
  match reach [ Clockcons.ge "x" 1 ] with
  | exception Compiled.Compile_error _ -> ()
  | _ -> Alcotest.fail "x >= 1: the out-of-range update did not raise"

(* --- allocation budget --------------------------------------------------- *)

(* The search's per-successor path allocates no closure, the
   extrapolation no scratch, and a discrete state's candidates and
   successor vectors are built once, in its successor table, so
   gpca-psm-input (Table I's input delay) allocates ~0.8M minor words:
   ~1.4M when every zone rebuilt its candidates, 7.9M with a
   closure per walk and a touched-list array per extrapolation.  A
   deterministic count, unlike a time. *)
let test_allocation_budget () =
  let ceiling =
    2 * (Gpca.Experiment.analytic_bounds Gpca.Params.default)
          .Gpca.Experiment.a_mc
  in
  let q =
    Mc.Query.Sup_delay
      { trigger = Gpca.Model.bolus_req;
        response = Transform.Names.input_chan Gpca.Model.bolus_req;
        ceiling }
  in
  let net = gpca_psm () in
  let w0 = Gc.minor_words () in
  let r = Mc.Query.eval net q in
  let words = Gc.minor_words () -. w0 in
  (match r.Mc.Query.res_outcome with
   | Mc.Query.Sup (Mc.Explorer.Sup (490, _)) -> ()
   | _ -> Alcotest.fail "gpca-psm-input: expected sup 490");
  if words > 1.2e6 then
    Alcotest.failf "gpca-psm-input allocated %.0f minor words (budget 1.2M)"
      words

(* --- the PIM through Query.eval and timed witnesses ---------------------- *)

let gpca_pim () =
  Gpca.Model.network ~variant:Gpca.Model.Bolus_only Gpca.Params.default

(* The PIM reaches [Pump.Infusing] and meets REQ1; refuting the
   negation of the bounded check needs the whole state space. *)
let test_query_eval_pim () =
  let holds text =
    match Mc.Query.parse text with
    | Error msg -> Alcotest.failf "parse %S: %s" text msg
    | Ok q ->
      let o = (Mc.Query.eval (gpca_pim ()) q).Mc.Query.res_outcome in
      if o <> Mc.Query.Holds then
        Alcotest.failf "%s: %a, expected holds" text Mc.Query.pp_outcome o
  in
  holds "E<> Pump.Infusing";
  holds
    (Printf.sprintf "bounded: %s -> %s within 500" Gpca.Model.bolus_req
       Gpca.Model.start_infusion)

(* A witness chain replays: the exact replay re-checks feasibility edge
   by edge. *)
let test_timed_witness_replays () =
  let t = Mc.Explorer.make (gpca_pim ()) in
  match Mc.Explorer.timed_trace t (Mc.Explorer.at t ~aut:"Pump" ~loc:"Infusing")
  with
  | Some steps ->
    Alcotest.(check bool) "non-empty witness" true (steps <> [])
  | None -> Alcotest.fail "no witness to Pump.Infusing"

let suite =
  [ Alcotest.test_case "reach within invariant" `Quick
      test_reach_within_invariant;
    Alcotest.test_case "invariant blocks guard" `Quick test_invariant_blocks;
    Alcotest.test_case "boundary guard reachable" `Quick
      test_boundary_reachable;
    Alcotest.test_case "binary sync" `Quick test_binary_sync;
    Alcotest.test_case "binary sync blocked" `Quick test_binary_sync_blocked;
    Alcotest.test_case "broadcast delivery" `Quick test_broadcast_delivery;
    Alcotest.test_case "broadcast non-blocking" `Quick
      test_broadcast_nonblocking;
    Alcotest.test_case "committed atomicity" `Quick test_committed_atomicity;
    Alcotest.test_case "urgent blocks delay" `Quick test_urgent_blocks_delay;
    Alcotest.test_case "bounded counter" `Quick test_counter;
    Alcotest.test_case "sup delay query" `Quick test_sup_delay;
    Alcotest.test_case "sup reports unbounded" `Quick
      test_sup_unbounded_reported;
    Alcotest.test_case "sup deterministic delay" `Quick
      test_sup_lower_bound_exact;
    Alcotest.test_case "safe query" `Quick test_safe;
    Alcotest.test_case "search limit" `Quick test_search_limit;
    QCheck_alcotest.to_alcotest prop_store_subsume;
    QCheck_alcotest.to_alcotest prop_store_equality;
    QCheck_alcotest.to_alcotest prop_walk_as;
    Alcotest.test_case "passed store = reference at scale" `Quick
      test_store_at_scale;
    Alcotest.test_case "passed store = reference, wide lanes" `Quick
      test_store_wide_lanes;
    Alcotest.test_case "store keeps the expanding zone" `Quick
      test_store_keeps_expanding_zone;
    Alcotest.test_case "admit_pre replays fire (ExtraM)" `Quick
      test_admit_pre_replays_fire;
    Alcotest.test_case "candidates = closure-based reference" `Quick
      test_candidate_order;
    Alcotest.test_case "gpca-psm-input minor-word budget" `Quick
      test_allocation_budget;
    Alcotest.test_case "successor tables = uncached firing" `Quick
      test_successor_tables;
    Alcotest.test_case "discrete half computed lazily" `Quick
      test_lazy_discrete_half;
    Alcotest.test_case "query eval on the PIM" `Quick test_query_eval_pim;
    Alcotest.test_case "timed witness replays" `Quick
      test_timed_witness_replays ]
