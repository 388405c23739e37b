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
   lines are checked before a byte is decoded), the same record in the
   unframed PSVSNAP2 layout of older builds, and a well-framed
   PSVSNAP3 file, whose payload was a marshalled record. *)
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
          ("an unframed PSVSNAP2 file", "PSVSNAP2" ^ Marshal.to_string snap []);
          ( "a PSVSNAP3 file",
            Keys.Frame.frame ~magic:"PSVSNAP3" (Marshal.to_string snap []) ) ])

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
  (* same network and monitor, another query kind *)
  match
    Mc.Explorer.search ~resume:snap ~label:"reachable"
      (Mc.Explorer.make
         ~monitor:
           (Mc.Monitor.delay ~trigger:"m_Train" ~response:"c_GateDown"
              ~clock:Mc.Query.delay_monitor_clock ~ceiling:320 ())
         (railroad_psm ()))
      (fun _ -> `Continue)
  with
  | _ -> Alcotest.fail "resumed a sup snapshot as a reachability search"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "refusal"
      "Explorer: snapshot was taken by a different kind of query" msg

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
   written, and with its entries reversed.  A snapshot lists the live
   entries in id order, so every node's in insertion order, and a
   restore appends them without a subsumption scan, so the reversed one
   rebuilds every node in the opposite order; subsumption decides the
   same whatever the order, so both must end at the uninterrupted sup,
   visited and stored counts. *)
let test_resume_entry_order () =
  let _, _, query = gpca_input () in
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
    { snap with Mc.Explorer.snap_entries = List.rev snap.Mc.Explorer.snap_entries }
  in
  (* per discrete state, ids in the order the snapshot lists them *)
  let node_ids snap =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun se ->
        let key = (se.Mc.Explorer.se_locs, se.se_vars, se.se_mon) in
        Hashtbl.replace tbl key
          (se.se_id :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
      snap.Mc.Explorer.snap_entries;
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

(* --- the checkpoint codec --------------------------------------------- *)

let fuzz_instance (k, index) =
  Diff.Gen.instance ~seed:16 ~index (List.nth Diff.Gen.all_shapes k)

let fuzz_explorer (inst : Diff.Gen.instance) =
  let monitor =
    Mc.Monitor.delay ~trigger:inst.Diff.Gen.trigger
      ~response:inst.Diff.Gen.response ~clock:"psv_delay_mon"
      ~ceiling:inst.Diff.Gen.ceiling ()
  in
  Mc.Explorer.make ~monitor inst.Diff.Gen.net

(* a fuzz instance: one of the four shapes, and an index *)
let arb_fuzz_instance =
  QCheck.make
    ~print:(fun ki -> (fuzz_instance ki).Diff.Gen.id)
    QCheck.Gen.(pair (int_range 0 3) (int_range 0 9_999))

let with_snap_file f =
  let path = Filename.temp_file "psv_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Cuts at a third and at two thirds of a fuzz instance's search, of
   every shape: the record read back equals the one written, and
   resuming it ends at the uninterrupted sup and statistics. *)
let prop_codec_roundtrip =
  QCheck.Test.make ~count:24 ~name:"checkpoint codec round trip"
    arb_fuzz_instance (fun ki ->
      let inst = fuzz_instance ki in
      let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) inst.Diff.Gen.id in
      let sup ?ctl ?resume () =
        let t = fuzz_explorer inst in
        Mc.Explorer.sup_clock ?ctl ?resume t
          ~pred:(Mc.Explorer.mon_in t "Waiting") ~clock:"psv_delay_mon"
      in
      let full = sup () in
      let visited = full.Mc.Explorer.so_stats.Mc.Explorer.visited in
      with_snap_file (fun path ->
          List.for_all
            (fun budget ->
              let ctl = Mc.Runctl.create ~budget:(state_budget budget) () in
              match (sup ~ctl ()).Mc.Explorer.so_snapshot with
              | None -> visited <= budget
              | Some snap -> (
                Mc.Explorer.save_snapshot path snap;
                match Mc.Explorer.load_snapshot path with
                | Error msg -> fail "cut at %d: %s" budget msg
                | Ok back ->
                  if back <> snap then fail "cut at %d: read back differs" budget;
                  let r = sup ~resume:back () in
                  r.Mc.Explorer.so_sup = full.Mc.Explorer.so_sup
                  && r.Mc.Explorer.so_stats = full.Mc.Explorer.so_stats
                  || fail "cut at %d: resumed run differs" budget))
            [ max 1 (visited / 3); max 1 (2 * visited / 3) ]))

(* Random bytes, truncations and one-byte mutations of a real payload,
   each framed with a valid digest.  The first two never decode; a
   mutation is refused when loaded or at resume, or, where it only moves
   a value to another one a search could have written (a counter, a
   bound that stays canonical), resumes.  Nothing else escapes. *)
let test_decoder_fuzz () =
  let ctl = Mc.Runctl.create ~budget:(state_budget 200) () in
  let snap = Option.get (railroad_delay ~ctl ()).Mc.Explorer.so_snapshot in
  with_snap_file (fun path ->
      Mc.Explorer.save_snapshot path snap;
      let payload =
        match
          Keys.Frame.unframe ~magic:"PSVSNAP4"
            (In_channel.with_open_bin path In_channel.input_all)
        with
        | Ok p -> p
        | Error _ -> Alcotest.fail "checkpoint is not a PSVSNAP4 frame"
      in
      let n = String.length payload in
      let rng = Random.State.make [| 36 |] in
      let byte () = Char.chr (Random.State.int rng 256) in
      let random () = String.init (Random.State.int rng 64) (fun _ -> byte ()) in
      let cut () = String.sub payload 0 (Random.State.int rng n) in
      let mutate () =
        let b = Bytes.of_string payload and i = Random.State.int rng n in
        let c = Char.code (Bytes.get b i) lxor (1 + Random.State.int rng 255) in
        Bytes.set b i (Char.chr c);
        Bytes.to_string b
      in
      let refused = ref 0 and resumed = ref 0 in
      List.iter
        (fun (what, make, may_load) ->
          for _ = 1 to 100 do
            write_file path (Keys.Frame.frame ~magic:"PSVSNAP4" (make ()));
            match Mc.Explorer.load_snapshot path with
            | Error _ -> incr refused
            | exception exn ->
              Alcotest.failf "%s: load raised %s" what (Printexc.to_string exn)
            | Ok _ when not may_load -> Alcotest.failf "%s decoded" what
            | Ok back -> (
              match railroad_delay ~resume:back () with
              | _ -> incr resumed
              | exception Invalid_argument _ -> incr refused
              | exception exn ->
                Alcotest.failf "%s: resume raised %s" what
                  (Printexc.to_string exn))
          done)
        [ ("random bytes", random, false);
          ("a truncation", cut, false);
          ("a one-byte mutation", mutate, true) ];
      Alcotest.(check bool)
        (Printf.sprintf "%d refused, %d resumed" !refused !resumed)
        true (!refused > 200))

(* A well-framed checkpoint that is not one a search wrote ends [psv
   verify --resume] with one diagnostic and exit 3: three marshalled
   values of other types, which a [Marshal]-based reader crashed on, and
   a real cut of the same query whose trace row names an edge the model
   does not have. *)
let test_forged_checkpoints () =
  with_snap_file (fun psm ->
      let code, _, err = Cli.run [ "export"; "--psm"; "-o"; psm ] in
      if code <> 0 then Alcotest.failf "export: exit %d: %s" code err;
      let verify extra =
        Cli.run
          ([ "verify"; psm; "--trigger"; "m_BolusReq"; "--response";
             "c_StartInfusion"; "--bound"; "1430" ]
          @ extra)
      in
      with_snap_file (fun path ->
          let refused what =
            let code, _, err = verify [ "--resume"; path ] in
            let prefix = Printf.sprintf "psv: cannot resume from %s: " path in
            if code <> 3
               || not (String.starts_with ~prefix err)
               || List.length (String.split_on_char '\n' err) <> 2
            then Alcotest.failf "%s: exit %d, stderr %S" what code err
          in
          List.iter
            (fun (what, payload) ->
              write_file path (Keys.Frame.frame ~magic:"PSVSNAP4" payload);
              refused what)
            [ ("42", Marshal.to_string 42 []);
              ("(1, \"x\", 3.0)", Marshal.to_string (1, "x", 3.0) []);
              ("[1; 2; 3]", Marshal.to_string [ 1; 2; 3 ] []) ];
          ignore (verify [ "--budget-states"; "200"; "--checkpoint"; path ]);
          let snap =
            match Mc.Explorer.load_snapshot path with
            | Ok s -> s
            | Error msg -> Alcotest.failf "the 200-state cut: %s" msg
          in
          let trace = Array.copy snap.Mc.Explorer.snap_trace in
          let id = Array.length trace - 1 in
          let parent, movers = trace.(id) in
          trace.(id) <- (parent, List.map (fun (ai, _) -> (ai, 999)) movers);
          Mc.Explorer.save_snapshot path
            { snap with Mc.Explorer.snap_trace = trace };
          refused "a trace row naming a missing edge"))

(* A zone a search could store only if it kept one dead clock's row
   infinite: a real cut of the GPCA M-C query with one entry's dead row
   made finite by bounding that clock.  The zone is still canonical and
   within every range, so only the dead-row check refuses it: exit 3
   with the entry's diagnostic.  The cut as written resumes. *)
let test_dead_row_checkpoint () =
  with_snap_file (fun psm ->
      let code, _, err = Cli.run [ "export"; "--psm"; "-o"; psm ] in
      if code <> 0 then Alcotest.failf "export: exit %d: %s" code err;
      let net =
        match
          Xta.Parse.network (In_channel.with_open_bin psm In_channel.input_all)
        with
        | Ok net -> net
        | Error msg -> Alcotest.failf "exported PSM: %s" msg
      in
      (* the explorer [psv verify] builds, for its row sets *)
      let t =
        Mc.Explorer.make
          ~monitor:
            (Mc.Monitor.delay ~trigger:"m_BolusReq" ~response:"c_StartInfusion"
               ~clock:Mc.Query.delay_monitor_clock ~ceiling:1430 ())
          net
      in
      let dim = (Mc.Explorer.compiled t).Ta.Compiled.c_nclocks + 1 in
      let verify extra =
        Cli.run
          ([ "verify"; psm; "--trigger"; "m_BolusReq"; "--response";
             "c_StartInfusion"; "--bound"; "1430" ]
          @ extra)
      in
      with_snap_file (fun path ->
          ignore (verify [ "--budget-states"; "200"; "--checkpoint"; path ]);
          let snap =
            match Mc.Explorer.load_snapshot path with
            | Ok s -> s
            | Error msg -> Alcotest.failf "the 200-state cut: %s" msg
          in
          let code, _, err = verify [ "--resume"; path ] in
          if code <> 0 then
            Alcotest.failf "the cut as written: exit %d, stderr %S" code err;
          (* the first entry with a dead clock, and that clock *)
          let dead (se : Mc.Explorer.snap_entry) =
            let rows =
              Mc.Explorer.live_rows t
                { Mc.Explorer.st_locs = se.se_locs; st_vars = se.se_vars;
                  st_mon = se.se_mon;
                  st_zone = Zone.Dbm.of_ints ~dim se.se_zone }
            in
            List.find_opt
              (fun i -> not (Array.mem i rows))
              (List.init (dim - 1) (fun i -> i + 1))
          in
          let se, x =
            match
              List.find_map
                (fun se -> Option.map (fun x -> (se, x)) (dead se))
                snap.Mc.Explorer.snap_entries
            with
            | Some found -> found
            | None -> Alcotest.fail "no entry of the cut has a dead clock"
          in
          let z = Zone.Dbm.of_ints ~dim se.Mc.Explorer.se_zone in
          Zone.Dbm.constrain z x 0 (Zone.Bound.le 100_000);
          if Zone.Dbm.is_empty z || Zone.Dbm.sup_clock z x = Zone.Bound.infinity
          then Alcotest.fail "bounding the dead clock did not make its row finite";
          let forged =
            List.map
              (fun (e : Mc.Explorer.snap_entry) ->
                if e == se then { e with se_zone = Zone.Dbm.to_ints z } else e)
              snap.Mc.Explorer.snap_entries
          in
          Mc.Explorer.save_snapshot path
            { snap with Mc.Explorer.snap_entries = forged };
          let code, _, err = verify [ "--resume"; path ] in
          Alcotest.(check (pair int string))
            "exit and diagnostic"
            ( 3,
              Printf.sprintf
                "psv: cannot resume from %s: Explorer: snapshot entry %d is \
                 repeated, or holds a state no search stores\n"
                path se.se_id )
            (code, err)))

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
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "checkpoint decoder fuzz" `Quick test_decoder_fuzz;
    Alcotest.test_case "forged checkpoints exit 3" `Quick
      test_forged_checkpoints;
    Alcotest.test_case "dead-row checkpoint entry exits 3" `Quick
      test_dead_row_checkpoint;
    Alcotest.test_case "railroad verdicts at P(320)" `Quick
      test_verify_response_verdicts ]
