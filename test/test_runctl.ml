(* Tests of the run-governance layer: budgets, cancellation, and the
   checkpoint/resume round-trip.  The key invariant: an interrupted
   search resumed from its snapshot ends in exactly the same verdict and
   state counts as an uninterrupted run. *)

open Ta

let loc = Model.location
let edge = Model.edge

(* A 100k-state discrete counter: enough room for any budget to fire. *)
let big_net () =
  let a =
    Model.automaton ~name:"C" ~initial:"L"
      [ loc "L" ]
      [ edge
          ~pred:Expr.(lt (var "n") (int 100_000))
          ~updates:[ ("n", Expr.(var "n" + int 1)) ]
          "L" "L" ]
  in
  Model.network ~name:"big" ~clocks:[]
    ~vars:[ ("n", Model.int_var ~min:0 ~max:100_000 0) ]
    ~channels:[] [ a ]

let state_budget n =
  { Mc.Runctl.no_budget with Mc.Runctl.b_states = Some n }

let test_state_budget_unknown () =
  let ctl = Mc.Runctl.create ~budget:(state_budget 100) () in
  let t = Mc.Explorer.make (big_net ()) in
  let r = Mc.Explorer.reachable ~ctl t (fun _ -> false) in
  Alcotest.(check bool) "interrupted with the state-budget reason" true
    (r.Mc.Explorer.r_interrupt = Some (Mc.Runctl.State_budget 100));
  let st = r.Mc.Explorer.r_stats in
  Alcotest.(check bool) "partial stats are sane" true
    (st.Mc.Explorer.visited <= 100
     && st.Mc.Explorer.stored > 0
     && st.Mc.Explorer.frontier > 0)

let test_time_budget_unknown () =
  (* a zero wall-clock budget fires on the very first check *)
  let ctl =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_time_s = Some 0.0 }
      ()
  in
  let t = Mc.Explorer.make (big_net ()) in
  let r = Mc.Explorer.reachable ~ctl t (fun _ -> false) in
  (match r.Mc.Explorer.r_interrupt with
   | Some (Mc.Runctl.Time_budget _) -> ()
   | other ->
     Alcotest.failf "expected a time-budget interrupt, got %a"
       Fmt.(option Mc.Runctl.pp_reason)
       other);
  Alcotest.(check bool) "no witness claimed" true
    (r.Mc.Explorer.r_trace = None)

let test_cancellation () =
  let ctl = Mc.Runctl.create () in
  Mc.Runctl.cancel ctl;
  let t = Mc.Explorer.make (big_net ()) in
  let r = Mc.Explorer.reachable ~ctl t (fun _ -> false) in
  Alcotest.(check bool) "cancelled before the first expansion" true
    (r.Mc.Explorer.r_interrupt = Some Mc.Runctl.Cancelled);
  Alcotest.(check bool) "nothing visited" true
    (r.Mc.Explorer.r_stats.Mc.Explorer.visited = 0)

(* A batch's query queued behind others gets its whole time budget: a
   sibling's clock starts when it is made, not when its root was. *)
let test_sibling_clock () =
  let root =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_time_s = Some 0.05 }
      ()
  in
  Unix.sleepf 0.1;
  let late = Mc.Runctl.sibling root in
  Alcotest.(check bool) "same budget" true
    (Mc.Runctl.budget late = Mc.Runctl.budget root);
  (match Mc.Runctl.check root ~visited:0 with
   | Some (Mc.Runctl.Time_budget _) -> ()
   | other ->
     Alcotest.failf "root: expected a time-budget stop, got %a"
       Fmt.(option Mc.Runctl.pp_reason)
       other);
  (match Mc.Runctl.check late ~visited:0 with
   | None -> ()
   | Some reason ->
     Alcotest.failf "fresh sibling stopped: %a" Mc.Runctl.pp_reason reason)

(* One ^C cancels the whole batch: the tokens already made, the ones made
   after, and the root through any of them. *)
let test_sibling_cancellation () =
  let root = Mc.Runctl.create () in
  let early = Mc.Runctl.sibling root in
  Mc.Runctl.cancel root;
  let late = Mc.Runctl.sibling root in
  List.iter
    (fun (name, ctl) ->
      Alcotest.(check bool) name true
        (Mc.Runctl.check ctl ~visited:0 = Some Mc.Runctl.Cancelled))
    [ ("made before the cancel", early); ("made after the cancel", late) ];
  let root2 = Mc.Runctl.create () in
  let s = Mc.Runctl.sibling root2 in
  Alcotest.(check bool) "not cancelled yet" false (Mc.Runctl.cancelled root2);
  Mc.Runctl.cancel s;
  Alcotest.(check bool) "a sibling's cancel reaches the root" true
    (Mc.Runctl.cancelled root2)

let test_parse_duration () =
  let ok s expected =
    match Mc.Runctl.parse_duration s with
    | Ok v -> Alcotest.(check (float 1e-9)) s expected v
    | Error msg -> Alcotest.failf "parse_duration %S: %s" s msg
  in
  ok "500ms" 0.5;
  ok "2s" 2.0;
  ok "5m" 300.0;
  ok "1h" 3600.0;
  ok "2.5" 2.5;
  List.iter
    (fun s ->
      match Mc.Runctl.parse_duration s with
      | Ok v -> Alcotest.failf "parse_duration %S accepted as %f" s v
      | Error _ -> ())
    [ ""; "-3s"; "bogus"; "12q" ]

(* --- checkpoint/resume -------------------------------------------------- *)

(* The railroad gate controller PSM: a timed model whose sup query takes
   a few thousand states — room to interrupt in the middle.  [headway]
   is the least time between trains (0: none), [invocation] the
   software's. *)
let railroad_psm ?(headway = 300) ?(invocation = Scheme.Periodic 25) () =
  let controller =
    Model.automaton ~name:"GateCtrl" ~initial:"Open"
      [ loc "Open";
        loc ~inv:[ Clockcons.le "g" 5 ] "Lowering";
        loc "Closed" ]
      [ edge ~sync:(Model.Recv "m_Train") ~resets:[ "g" ] "Open" "Lowering";
        edge ~sync:(Model.Send "c_GateDown") "Lowering" "Closed";
        edge ~sync:(Model.Recv "m_Clear") "Closed" "Open" ]
  in
  let track =
    Model.automaton ~name:"Track" ~initial:"Away"
      [ loc "Away";
        loc "Approaching";
        loc ~inv:[ Clockcons.le "t" 1_500 ] "Passing" ]
      [ edge
          ~guard:(if headway = 0 then [] else [ Clockcons.ge "t" headway ])
          ~sync:(Model.Send "m_Train") ~resets:[ "t" ] "Away" "Approaching";
        edge ~sync:(Model.Recv "c_GateDown") ~resets:[ "t" ] "Approaching"
          "Passing";
        edge
          ~guard:[ Clockcons.ge "t" 1_000 ]
          ~sync:(Model.Send "m_Clear") ~resets:[ "t" ] "Passing" "Away" ]
  in
  let net =
    Model.network ~name:"railroad" ~clocks:[ "g"; "t" ] ~vars:[]
      ~channels:
        [ ("m_Train", Model.Broadcast);
          ("m_Clear", Model.Broadcast);
          ("c_GateDown", Model.Broadcast) ]
      [ controller; track ]
  in
  let pim = Transform.Pim.make net ~software:"GateCtrl" ~environment:"Track" in
  let scheme =
    { Scheme.is_name = "ecu";
      is_inputs =
        [ ("m_Train", Scheme.interrupt_input (Scheme.delay 1 4));
          ("m_Clear", Scheme.interrupt_input (Scheme.delay 1 4)) ];
      is_outputs = [ ("c_GateDown", Scheme.pulse_output (Scheme.delay 5 20)) ];
      is_input_comm = Scheme.Buffer (2, Scheme.Read_all);
      is_output_comm = Scheme.Buffer (2, Scheme.Read_all);
      is_invocation = invocation;
      is_exec = { Scheme.wcet_min = 1; wcet_max = 8 } }
  in
  (Transform.psm_of_pim pim scheme).Transform.psm_net

let railroad_delay ?ctl ?resume () =
  Mc.Query.max_delay ?ctl ?resume (railroad_psm ()) ~trigger:"m_Train"
    ~response:"c_GateDown" ~ceiling:320

let test_checkpoint_roundtrip () =
  let straight = railroad_delay () in
  Alcotest.(check bool) "straight run completes" true
    (straight.Mc.Explorer.so_interrupt = None);
  (* interrupt in the middle *)
  let ctl = Mc.Runctl.create ~budget:(state_budget 200) () in
  let cut = railroad_delay ~ctl () in
  Alcotest.(check bool) "interrupted mid-search" true
    (cut.Mc.Explorer.so_interrupt = Some (Mc.Runctl.State_budget 200));
  let snap =
    match cut.Mc.Explorer.so_snapshot with
    | Some s -> s
    | None -> Alcotest.fail "interrupted run carries no snapshot"
  in
  (* round-trip through the on-disk format *)
  let path = Filename.temp_file "psv_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Mc.Explorer.save_snapshot path snap;
      let reloaded =
        match Mc.Explorer.load_snapshot path with
        | Ok s -> s
        | Error msg -> Alcotest.failf "load_snapshot: %s" msg
      in
      let resumed = railroad_delay ~resume:reloaded () in
      Alcotest.(check bool) "resumed run completes" true
        (resumed.Mc.Explorer.so_interrupt = None);
      Alcotest.(check bool) "same sup" true
        (resumed.Mc.Explorer.so_sup = straight.Mc.Explorer.so_sup);
      Alcotest.(check int) "same visited count"
        straight.Mc.Explorer.so_stats.Mc.Explorer.visited
        resumed.Mc.Explorer.so_stats.Mc.Explorer.visited;
      Alcotest.(check int) "same stored count"
        straight.Mc.Explorer.so_stats.Mc.Explorer.stored
        resumed.Mc.Explorer.so_stats.Mc.Explorer.stored)

(* Every damaged or foreign file is an [Error]: a real checkpoint with
   one payload byte flipped or its last byte cut (the digest and length
   lines are checked before [Marshal] reads a byte), and the same record
   in the unframed PSVSNAP2 layout of older builds. *)
let test_load_snapshot_errors () =
  (match Mc.Explorer.load_snapshot "/nonexistent/psv.snap" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "loaded a snapshot from a missing file");
  let ctl = Mc.Runctl.create ~budget:(state_budget 200) () in
  let snap = Option.get (railroad_delay ~ctl ()).Mc.Explorer.so_snapshot in
  let path = Filename.temp_file "psv_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Mc.Explorer.save_snapshot path snap;
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let flipped =
        let b = Bytes.of_string raw in
        let i = Bytes.length b - 64 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        Bytes.to_string b
      in
      List.iter
        (fun (label, bytes) ->
          Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
          match Mc.Explorer.load_snapshot path with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %s as a snapshot" label
          | exception exn ->
            Alcotest.failf "%s: raised %s" label (Printexc.to_string exn))
        [ ("garbage", "not a snapshot at all");
          ("a flipped payload byte", flipped);
          ("a checkpoint one byte short", String.sub raw 0 (String.length raw - 1));
          ("an unframed PSVSNAP2 file", "PSVSNAP2" ^ Marshal.to_string snap []) ])

let test_fingerprint_mismatch () =
  let ctl = Mc.Runctl.create ~budget:(state_budget 200) () in
  let cut = railroad_delay ~ctl () in
  let snap = Option.get cut.Mc.Explorer.so_snapshot in
  (* same query shape, different network: the fingerprint must reject *)
  (match
     Mc.Query.max_delay ~resume:snap (big_net ()) ~trigger:"m_Train"
       ~response:"c_GateDown" ~ceiling:320
   with
   | _ -> Alcotest.fail "resumed a snapshot of a different network"
   | exception Invalid_argument _ -> ());
  (* same network, another monitor ceiling *)
  (match
     Mc.Query.max_delay ~resume:snap (railroad_psm ()) ~trigger:"m_Train"
       ~response:"c_GateDown" ~ceiling:640
   with
   | _ -> Alcotest.fail "resumed a snapshot of another ceiling"
   | exception Invalid_argument _ -> ());
  (* a record whose dedup field says equality, which only a forged file
     can hold now: the field is the record's fourth *)
  let forged = Obj.dup (Obj.repr snap) in
  Obj.set_field forged 3 (Obj.repr false);
  match
    Mc.Query.max_delay ~resume:(Obj.obj forged) (railroad_psm ())
      ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320
  with
  | _ -> Alcotest.fail "resumed a snapshot taken without subsumption"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "refusal"
      "Explorer: snapshot subsumption mode differs" msg

(* [Psv.verify_response] decides P(320) on both sides: the periodic
   railroad meets it, the racing one (no headway) does not. *)
let test_verify_response_verdicts () =
  List.iter
    (fun (name, net, expected) ->
      let v =
        Psv.verify_response net ~trigger:"m_Train" ~response:"c_GateDown"
          ~bound:320
      in
      if v <> expected then
        Alcotest.failf "%s: verdict %a, expected %a" name Mc.Query.pp_outcome
          v Mc.Query.pp_outcome expected)
    [ ("railroad-periodic25 |= P(320)", railroad_psm (), Mc.Query.Holds);
      ( "railroad-race |/= P(320)",
        railroad_psm ~headway:0 ~invocation:(Scheme.Aperiodic 0) (),
        Mc.Query.Fails None ) ]

(* The GPCA PSM's input-delay query (Table I's verified 490) on its
   explorer. *)
let gpca_input () =
  let params = Gpca.Params.default in
  let psm =
    (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net
  in
  let clock = Mc.Query.delay_monitor_clock in
  let t =
    Mc.Explorer.make
      ~monitor:
        (Mc.Monitor.delay ~trigger:Gpca.Model.bolus_req
           ~response:(Transform.Names.input_chan Gpca.Model.bolus_req)
           ~clock
           ~ceiling:
             (2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc)
           ())
      psm
  in
  let query ?ctl ?resume () =
    Mc.Explorer.sup_clock ?ctl ?resume t ~pred:(Mc.Explorer.mon_in t "Waiting")
      ~clock
  in
  (t, "sup:" ^ clock, query)

(* The same query cut at three state budgets.  Each snapshot resumes twice: as
   written, and with its entries reversed.  A snapshot lists every
   node's live entries in insertion order, and a restore appends them
   without a subsumption scan, so the reversed one rebuilds every node
   in the opposite order; subsumption decides the same whatever the
   order, so both must end at the uninterrupted sup, visited and stored
   counts. *)
let test_resume_entry_order () =
  let t, label, query = gpca_input () in
  let full = query () in
  let stats r = r.Mc.Explorer.so_stats in
  Alcotest.(check bool) "reference run completes past the largest cut" true
    (full.Mc.Explorer.so_interrupt = None
     && (stats full).Mc.Explorer.visited > 8000);
  (match full.Mc.Explorer.so_sup with
   | Mc.Explorer.Sup (490, _) -> ()
   | sup ->
     Alcotest.failf "input delay: expected sup 490, got %a"
       Mc.Explorer.pp_sup_result sup);
  let reversed snap =
    let module E = Mc.Explorer in
    E.make_snapshot t ~label
      ~next_id:(E.snapshot_next_id snap)
      ~visited:(E.snapshot_visited snap) ~stored:(E.snapshot_stored snap)
      ~entries:(List.rev (E.snapshot_entries snap))
      ~queue:(E.snapshot_queue snap) ~trace:(E.snapshot_trace snap)
      ~payload:(E.snapshot_payload snap)
  in
  (* per discrete state, ids in the order the snapshot lists them *)
  let node_ids snap =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun se ->
        let key = (se.Mc.Explorer.se_locs, se.se_vars, se.se_mon) in
        Hashtbl.replace tbl key
          (se.se_id :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
      (Mc.Explorer.snapshot_entries snap);
    Hashtbl.fold (fun _ ids acc -> List.rev ids :: acc) tbl []
  in
  List.iter
    (fun budget ->
      let cut =
        query ~ctl:(Mc.Runctl.create ~budget:(state_budget budget) ()) ()
      in
      let snap =
        match cut.Mc.Explorer.so_snapshot with
        | Some s -> s
        | None -> Alcotest.failf "cut at %d: no snapshot" budget
      in
      List.iter
        (fun ids ->
          if ids <> List.sort compare ids then
            Alcotest.failf
              "cut at %d: a node's entries are not in insertion order" budget)
        (node_ids snap);
      List.iter
        (fun (how, snap) ->
          let r = query ~resume:snap () in
          let name what = Printf.sprintf "cut at %d, %s: %s" budget how what in
          Alcotest.(check bool) (name "completes") true
            (r.Mc.Explorer.so_interrupt = None);
          Alcotest.(check bool) (name "sup") true
            (r.Mc.Explorer.so_sup = full.Mc.Explorer.so_sup);
          Alcotest.(check int) (name "visited") (stats full).Mc.Explorer.visited
            (stats r).Mc.Explorer.visited;
          Alcotest.(check int) (name "stored") (stats full).Mc.Explorer.stored
            (stats r).Mc.Explorer.stored)
        [ ("as written", snap); ("entries reversed", reversed snap) ])
    [ 500; 3000; 8000 ]

(* Checkpoints of an older build's partitioned search numbered partition
   [p]'s k-th entry [base + p + k * N], so their ids have gaps.  A
   sequential cut renumbered that way (ids times 4, trace rows spread to
   match) resumes to the uninterrupted sup 490 and counts. *)
let test_resume_gapped_ids () =
  let t, label, query = gpca_input () in
  let full = query () in
  let cut = query ~ctl:(Mc.Runctl.create ~budget:(state_budget 3000) ()) () in
  let snap = Option.get cut.Mc.Explorer.so_snapshot in
  let module E = Mc.Explorer in
  let gap id = if id < 0 then id else 4 * id in
  let rows = E.snapshot_trace snap in
  let trace =
    Array.init
      (4 * E.snapshot_next_id snap)
      (fun id ->
        if id mod 4 = 0 && id / 4 < Array.length rows then
          let parent, movers = rows.(id / 4) in
          (gap parent, movers)
        else (-1, []))
  in
  let gapped =
    E.make_snapshot t ~label
      ~next_id:(4 * E.snapshot_next_id snap)
      ~visited:(E.snapshot_visited snap) ~stored:(E.snapshot_stored snap)
      ~entries:
        (List.map
           (fun se -> { se with E.se_id = gap se.E.se_id })
           (E.snapshot_entries snap))
      ~queue:(Array.map gap (E.snapshot_queue snap))
      ~trace ~payload:(E.snapshot_payload snap)
  in
  let r = query ~resume:gapped () in
  Alcotest.(check bool) "completes" true (r.E.so_interrupt = None);
  (match r.E.so_sup with
   | E.Sup (490, _) -> ()
   | sup -> Alcotest.failf "expected sup 490, got %a" E.pp_sup_result sup);
  Alcotest.(check int) "visited" full.E.so_stats.E.visited
    r.E.so_stats.E.visited;
  Alcotest.(check int) "stored" full.E.so_stats.E.stored r.E.so_stats.E.stored

let suite =
  [ Alcotest.test_case "state budget -> Unknown" `Quick
      test_state_budget_unknown;
    Alcotest.test_case "time budget -> Unknown" `Quick
      test_time_budget_unknown;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "sibling starts its own clock" `Quick
      test_sibling_clock;
    Alcotest.test_case "siblings share cancellation" `Quick
      test_sibling_cancellation;
    Alcotest.test_case "parse_duration" `Quick test_parse_duration;
    Alcotest.test_case "checkpoint round-trip" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "load_snapshot errors" `Quick
      test_load_snapshot_errors;
    Alcotest.test_case "fingerprint mismatch rejected" `Quick
      test_fingerprint_mismatch;
    Alcotest.test_case "resume is entry-order independent" `Quick
      test_resume_entry_order;
    Alcotest.test_case "resume with gapped ids" `Quick test_resume_gapped_ids;
    Alcotest.test_case "railroad verdicts at P(320)" `Quick
      test_verify_response_verdicts ]
