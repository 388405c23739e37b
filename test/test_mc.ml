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
  let v, _ = Mc.Explorer.safe t (Mc.Explorer.at t ~aut:"P" ~loc:"B") in
  (match v with
   | Mc.Explorer.Refuted (Some trace) ->
     Alcotest.(check bool) "counterexample non-empty" true (trace <> [])
   | Mc.Explorer.Refuted None -> Alcotest.fail "refutation lost its trace"
   | Mc.Explorer.Proved | Mc.Explorer.Unknown _ ->
     Alcotest.fail "B is reachable so not safe");
  let t2 = Mc.Explorer.make (one_step ~lo:11) in
  let v2, _ = Mc.Explorer.safe t2 (Mc.Explorer.at t2 ~aut:"P" ~loc:"B") in
  Alcotest.(check bool) "B unreachable so safe" true (v2 = Mc.Explorer.Proved)

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
   victim, a surviving entry and none. *)
let store_matches_reference ~subsume ~dim zones =
  let pool = Zone.Dbm.Pool.create dim in
  let p = P.create ~subsume pool in
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
    (store_matches_reference ~subsume ~dim:Gen.dbm_dims
       (List.map Gen.build_dbm seq)
      : store_run);
  true

let prop_store_subsume =
  QCheck.Test.make ~name:"passed store = reference (inclusion)" ~count:500
    arb_zone_seq (prop_store ~subsume:true)

let prop_store_equality =
  QCheck.Test.make ~name:"passed store = reference (equality)" ~count:200
    arb_zone_seq (prop_store ~subsume:false)

(* Dim-9 zones (gpca-psm-mc's size) in long sequences, so nodes fill
   several summarised blocks and compact.  A zone delays and resets the
   eight clocks in turn (x1 >= x2 >= ... >= x8), then boxes each clock
   with probability 9 in 10 into a narrow random window: such zones are
   mostly incomparable, a wide antichain.  One zone in 12 boxes only a
   few clocks, in wide windows, and kills a share of the node. *)
let arb_wide_zone_seq =
  let open QCheck.Gen in
  let box ~p ~width i =
    let* on = float_bound_inclusive 1.0 in
    if on >= p then return []
    else
      let* lo = int_range 0 12 and* w = int_range 0 width in
      return
        [ Gen.Op_constrain (0, i, false, -lo);
          Gen.Op_constrain (i, 0, false, lo + w) ]
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
      store_matches_reference ~subsume:true ~dim:Gen.dbm_dims_wide
        (List.map Gen.build_dbm_wide seq)
    in
    if r.max_slots >= 3 * P.block then incr blocks;
    if r.compactions > 0 then incr compacted;
    true
  in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 0x5107e; 9 |])
    (QCheck.Test.make ~name:"passed store = reference (dim 9, long)" ~count:60
       arb_wide_zone_seq prop);
  Alcotest.(check bool)
    (Printf.sprintf "cases filling 3 blocks (%d) and compacting (%d)" !blocks
       !compacted)
    true
    (!blocks > 0 && !compacted > 0)

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
    let p = P.create ~subsume:true pool in
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
let test_admit_pre_replays_fire ~lu () =
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
  let t = Mc.Explorer.make ~monitor ~lu psm in
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
    Alcotest.test_case "passed store = reference at scale" `Quick
      test_store_at_scale;
    Alcotest.test_case "store keeps the expanding zone" `Quick
      test_store_keeps_expanding_zone;
    Alcotest.test_case "admit_pre replays fire (ExtraM)" `Quick
      (test_admit_pre_replays_fire ~lu:false);
    Alcotest.test_case "admit_pre replays fire (ExtraLU)" `Quick
      (test_admit_pre_replays_fire ~lu:true) ]
