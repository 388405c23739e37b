(* Tests of the incremental re-verification subsystem: the psv-key-v2
   manifest, the cone-of-influence decision, the session ladder with its
   persistence (byte-equality of full-rung answers with from-scratch
   sequential runs is the hard bar), and the corrupt-bytes split in the
   disk stats. *)

module M = Ta.Model
module Q = Mc.Query

let tmp_counter = ref 0

let with_store_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_incr_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with _ -> ()) (fun () -> f dir)

let query text =
  match Q.parse text with
  | Ok q -> q
  | Error msg -> Alcotest.failf "bad query %S: %s" text msg

(* --- the toy network --------------------------------------------------

   Sender --c--> Receiver form one influence component (channel [c] and
   the flag [v] Receiver writes and the query reads).  Idler is a
   disconnected, time-inert component; Capped is a disconnected
   component that constrains time (an invariant on its private clock
   [y]), so edits to it must refuse the cone rung. *)

let sender =
  M.automaton ~name:"Sender" ~initial:"Idle"
    [ M.location ~inv:[ Ta.Clockcons.le "x" 10 ] "Idle"; M.location "Work" ]
    [ M.edge ~guard:[ Ta.Clockcons.ge "x" 2 ] ~sync:(M.Send "c")
        ~resets:[ "x" ] "Idle" "Work";
      M.edge ~guard:[ Ta.Clockcons.ge "x" 1 ] ~resets:[ "x" ] "Work" "Idle" ]

let receiver =
  M.automaton ~name:"Receiver" ~initial:"Wait"
    [ M.location "Wait"; M.location "Busy" ]
    [ M.edge ~sync:(M.Recv "c")
        ~updates:[ ("v", Ta.Expr.int 1) ]
        "Wait" "Busy";
      M.edge "Busy" "Wait" ]

let idler =
  M.automaton ~name:"Idler" ~initial:"A"
    [ M.location "A"; M.location "B" ]
    [ M.edge "A" "B"; M.edge "B" "A" ]

let capped =
  M.automaton ~name:"Capped" ~initial:"Run"
    [ M.location ~inv:[ Ta.Clockcons.le "y" 50 ] "Run" ]
    [ M.edge ~guard:[ Ta.Clockcons.ge "y" 1 ] ~resets:[ "y" ] "Run" "Run" ]

let toy_net =
  M.network ~name:"toy" ~clocks:[ "x"; "y" ]
    ~vars:[ ("v", M.flag ()) ]
    ~channels:[ ("c", M.Binary) ]
    [ sender; receiver; idler; capped ]

(* An edit helper: replace one automaton wholesale. *)
let with_automaton net name a = M.replace_automaton net name a

let idler' =
  (* same names, one edge fewer: digest moves, still inert *)
  M.automaton ~name:"Idler" ~initial:"A"
    [ M.location "A"; M.location "B" ]
    [ M.edge "A" "B" ]

let sender_tweaked =
  M.automaton ~name:"Sender" ~initial:"Idle"
    [ M.location ~inv:[ Ta.Clockcons.le "x" 10 ] "Idle"; M.location "Work" ]
    [ M.edge ~guard:[ Ta.Clockcons.ge "x" 3 ] ~sync:(M.Send "c")
        ~resets:[ "x" ] "Idle" "Work";
      M.edge ~guard:[ Ta.Clockcons.ge "x" 1 ] ~resets:[ "x" ] "Work" "Idle" ]

(* --- Store.Key v2 manifest -------------------------------------------- *)

let test_manifest () =
  let m = Store.Key.manifest toy_net in
  Alcotest.(check int) "one digest per automaton" 4
    (List.length m.Store.Key.mf_automata);
  Alcotest.(check bool) "self-equal" true (Store.Key.manifest_equal m m);
  (* editing one automaton moves exactly its digest *)
  let m' = Store.Key.manifest (with_automaton toy_net "Idler" idler') in
  Alcotest.(check bool) "decls digest stable" true
    (Store.D128.equal m.Store.Key.mf_decls m'.Store.Key.mf_decls);
  List.iter2
    (fun (name, d) (name', d') ->
      Alcotest.(check string) "same automaton order" name name';
      Alcotest.(check bool)
        (Printf.sprintf "digest of %s %s" name
           (if name = "Idler" then "moves" else "stays"))
        (name <> "Idler")
        (Store.D128.equal d d'))
    m.Store.Key.mf_automata m'.Store.Key.mf_automata;
  (* a declaration change moves the decls digest *)
  let net_decl =
    M.network ~name:"toy" ~clocks:[ "x"; "y" ]
      ~vars:[ ("v", M.flag ()); ("w", M.flag ()) ]
      ~channels:[ ("c", M.Binary) ]
      [ sender; receiver; idler; capped ]
  in
  let md = Store.Key.manifest net_decl in
  Alcotest.(check bool) "decls digest moves" false
    (Store.D128.equal m.Store.Key.mf_decls md.Store.Key.mf_decls);
  Alcotest.(check bool) "manifest_digest separates" false
    (Store.D128.equal
       (Store.Key.manifest_digest m)
       (Store.Key.manifest_digest md))

(* --- cone ------------------------------------------------------------- *)

let test_cone_components () =
  let t = Incr.Cone.analyse toy_net in
  Alcotest.(check bool) "channel links Sender-Receiver" true
    (Incr.Cone.same_component t "Sender" "Receiver");
  Alcotest.(check bool) "Idler disconnected" false
    (Incr.Cone.same_component t "Sender" "Idler");
  Alcotest.(check bool) "Capped disconnected" false
    (Incr.Cone.same_component t "Receiver" "Capped");
  Alcotest.(check bool) "Idler inert" true (Incr.Cone.component_inert t "Idler");
  Alcotest.(check bool) "Capped not inert" false
    (Incr.Cone.component_inert t "Capped");
  Alcotest.(check bool) "Sender component not inert (invariant)" false
    (Incr.Cone.component_inert t "Sender")

let test_cone_channel_chain () =
  (* A -c1-> B -c2-> C: transitively one component, D apart. *)
  let auto name edges locs = M.automaton ~name ~initial:"I" locs edges in
  let a =
    auto "A"
      [ M.edge ~sync:(M.Send "c1") "I" "I" ]
      [ M.location "I" ]
  and b =
    auto "B"
      [ M.edge ~sync:(M.Recv "c1") "I" "J"; M.edge ~sync:(M.Send "c2") "J" "I" ]
      [ M.location "I"; M.location "J" ]
  and c =
    auto "C"
      [ M.edge ~sync:(M.Recv "c2") "I" "I" ]
      [ M.location "I" ]
  and d = auto "D" [ M.edge "I" "I" ] [ M.location "I" ] in
  let net =
    M.network ~name:"chain" ~clocks:[] ~vars:[]
      ~channels:[ ("c1", M.Binary); ("c2", M.Binary) ]
      [ a; b; c; d ]
  in
  let t = Incr.Cone.analyse net in
  Alcotest.(check bool) "A-C linked through B" true
    (Incr.Cone.same_component t "A" "C");
  Alcotest.(check (list string)) "cone of E<> A.I" [ "A"; "B"; "C" ]
    (Incr.Cone.cone t (query "E<> A.I"));
  Alcotest.(check (list string)) "cone of a D query" [ "D" ]
    (Incr.Cone.cone t (query "E<> D.I"))

let test_cone_var_aliasing () =
  (* No channels: W writes [v], R reads it in a guard — shared-variable
     aliasing must link them. *)
  let w =
    M.automaton ~name:"W" ~initial:"I"
      [ M.location "I" ]
      [ M.edge ~updates:[ ("v", Ta.Expr.int 1) ] "I" "I" ]
  and r =
    M.automaton ~name:"R" ~initial:"I"
      [ M.location "I"; M.location "J" ]
      [ M.edge ~pred:(Ta.Expr.var_eq "v" 1) "I" "J" ]
  in
  let net =
    M.network ~name:"alias" ~clocks:[]
      ~vars:[ ("v", M.flag ()) ]
      ~channels:[] [ w; r ]
  in
  let t = Incr.Cone.analyse net in
  Alcotest.(check bool) "aliased" true (Incr.Cone.same_component t "W" "R");
  Alcotest.(check (list string)) "v-query cone covers both" [ "W"; "R" ]
    (Incr.Cone.cone t (query "E<> v == 1"))

let test_cone_check () =
  let q = query "E<> Receiver.Busy" in
  let ok = function
    | Ok () -> true
    | Error _ -> false
  in
  (* identical nets trivially hit *)
  Alcotest.(check bool) "identical nets hit" true
    (ok (Incr.Cone.check ~old_net:toy_net toy_net q));
  (* inert disconnected edit hits *)
  Alcotest.(check bool) "Idler edit hits" true
    (ok
       (Incr.Cone.check ~old_net:toy_net
          (with_automaton toy_net "Idler" idler')
          q));
  (* removing the inert automaton hits too *)
  let removed =
    { toy_net with
      M.net_automata =
        List.filter
          (fun (a : M.automaton) -> a.M.aut_name <> "Idler")
          toy_net.M.net_automata }
  in
  Alcotest.(check bool) "Idler removal hits" true
    (ok (Incr.Cone.check ~old_net:toy_net removed q));
  (* an edit inside the cone misses *)
  Alcotest.(check bool) "Sender edit misses" false
    (ok
       (Incr.Cone.check ~old_net:toy_net
          (with_automaton toy_net "Sender" sender_tweaked)
          q));
  (* an edit in a time-constraining component misses even though it is
     outside the cone *)
  let capped' =
    M.automaton ~name:"Capped" ~initial:"Run"
      [ M.location ~inv:[ Ta.Clockcons.le "y" 40 ] "Run" ]
      [ M.edge ~guard:[ Ta.Clockcons.ge "y" 1 ] ~resets:[ "y" ] "Run" "Run" ]
  in
  Alcotest.(check bool) "Capped edit misses (time)" false
    (ok
       (Incr.Cone.check ~old_net:toy_net
          (with_automaton toy_net "Capped" capped')
          q));
  (* a declaration change misses *)
  let net_decl =
    M.network ~name:"toy" ~clocks:[ "x"; "y"; "z" ]
      ~vars:[ ("v", M.flag ()) ]
      ~channels:[ ("c", M.Binary) ]
      [ sender; receiver; idler; capped ]
  in
  Alcotest.(check bool) "decl change misses" false
    (ok (Incr.Cone.check ~old_net:toy_net net_decl q))

(* --- answers against scratch ------------------------------------------ *)

let result_json (r : Q.result) =
  Store.Json.to_string
    (Store.Json.Obj
       [ ("outcome", Store.Entry.outcome_to_json r.Q.res_outcome);
         ("stats", Store.Entry.stats_to_json r.Q.res_stats) ])

let check_scratch_equal label net q (r : Q.result) =
  let scratch = Q.eval ~jobs:1 net q in
  Alcotest.(check string) label (result_json scratch) (result_json r)

let check_rung label want (o : Incr.Session.outcome) =
  Alcotest.(check string) label want (Incr.Session.rung_name o.Incr.Session.so_rung)

(* A cold session answers every query on the full rung, byte-equal to a
   from-scratch run, and reports that run's visited states. *)
let test_full_rung_matches_scratch () =
  List.iter
    (fun qtext ->
      let q = query qtext in
      let o = Incr.Session.run (Incr.Session.make ~tag:"scratch" ()) toy_net q in
      check_rung ("cold " ^ qtext) "full" o;
      check_scratch_equal ("full " ^ qtext) toy_net q o.Incr.Session.so_result;
      Alcotest.(check int) ("expanded " ^ qtext)
        o.Incr.Session.so_result.Q.res_stats.Mc.Explorer.visited
        o.Incr.Session.so_expanded;
      Alcotest.(check bool) ("explored " ^ qtext) true
        (o.Incr.Session.so_expanded > 0);
      Alcotest.(check int) ("nothing replayed " ^ qtext) 0
        o.Incr.Session.so_replayed)
    [ "E<> Receiver.Busy"; "A[] v == 0"; "A[] not Sender.Work" ]

(* Rerunning on an identical network explores nothing: the cone rung
   answers in memory, the store rung when a cache is attached. *)
let test_identical_net_explores_nothing () =
  let q = query "A[] v == 0" in
  let rerun label want sess =
    let o1 = Incr.Session.run sess toy_net q in
    let o2 = Incr.Session.run sess toy_net q in
    check_rung (label ^ " rung") want o2;
    Alcotest.(check int) (label ^ " no expansions") 0 o2.Incr.Session.so_expanded;
    Alcotest.(check (float 0.)) (label ^ " no answer time") 0.
      o2.Incr.Session.so_answer_ms;
    Alcotest.(check string) (label ^ " same answer")
      (result_json o1.Incr.Session.so_result)
      (result_json o2.Incr.Session.so_result)
  in
  rerun "in memory" "cone" (Incr.Session.make ~tag:"same" ());
  with_store_dir (fun dir ->
      match Store.Disk.open_ dir with
      | Error msg -> Alcotest.failf "open store: %s" msg
      | Ok disk ->
        rerun "with store" "store"
          (Incr.Session.make ~cache:(Analysis.Qcache.make disk) ~tag:"same" ()))

(* A chain of visible edits, including the edit back to the original
   network: each is re-explored and each answer equals scratch. *)
let test_full_rung_after_edit () =
  List.iter
    (fun qtext ->
      let q = query qtext in
      let sess = Incr.Session.make ~tag:"edits" () in
      ignore (Incr.Session.run sess toy_net q);
      let edited = with_automaton toy_net "Sender" sender_tweaked in
      List.iteri
        (fun i net ->
          let o = Incr.Session.run sess net q in
          let label = Printf.sprintf "%s edit %d" qtext i in
          check_rung label "full" o;
          check_scratch_equal label net q o.Incr.Session.so_result)
        [ edited; toy_net; edited ])
    [ "E<> Receiver.Busy"; "A[] not Sender.Work" ]

(* Edits the cone cannot see through — a new clock, a new automaton
   touching the query's variable, urgency in an otherwise inert
   component — and a query the session has never answered all fall to
   the full rung, never to a stale answer. *)
let test_structural_edits_reexplore () =
  let q = query "E<> Receiver.Busy" in
  let fresh () =
    let sess = Incr.Session.make ~tag:"structural" () in
    ignore (Incr.Session.run sess toy_net q);
    sess
  in
  let writer =
    M.automaton ~name:"Extra" ~initial:"I"
      [ M.location "I" ]
      [ M.edge ~updates:[ ("v", Ta.Expr.int 1) ] "I" "I" ]
  in
  let urgent_idler =
    M.automaton ~name:"Idler" ~initial:"A"
      [ M.location "A"; M.location ~kind:M.Urgent "B" ]
      [ M.edge "A" "B"; M.edge "B" "A" ]
  in
  List.iter
    (fun (label, net) ->
      let o = Incr.Session.run (fresh ()) net q in
      check_rung (label ^ " rung") "full" o;
      check_scratch_equal label net q o.Incr.Session.so_result)
    [ ( "clock added",
        M.network ~name:"toy" ~clocks:[ "x"; "y"; "z" ]
          ~vars:[ ("v", M.flag ()) ]
          ~channels:[ ("c", M.Binary) ]
          [ sender; receiver; idler; capped ] );
      ("writer added", M.add_automata toy_net [ writer ]);
      ("urgency added", with_automaton toy_net "Idler" urgent_idler) ];
  let other = query "A[] v == 0" in
  let o = Incr.Session.run (fresh ()) toy_net other in
  check_rung "foreign query rung" "full" o;
  check_scratch_equal "foreign query" toy_net other o.Incr.Session.so_result

(* The cone rung returns an earlier answer only under the entry reuse
   rule: an inconclusive answer found under a small state limit does not
   answer an unlimited request. *)
let test_cone_respects_budget () =
  let q = query "A[] v == 0 or v == 1" in
  let sess = Incr.Session.make ~tag:"budget" () in
  let o1 = Incr.Session.run ~limit:1 sess toy_net q in
  (match o1.Incr.Session.so_result.Q.res_outcome with
   | Q.Unknown _ -> ()
   | _ -> Alcotest.fail "a one-state limit should leave the query open");
  let inert = with_automaton toy_net "Idler" idler' in
  let o2 = Incr.Session.run sess inert q in
  check_rung "larger budget re-explores" "full" o2;
  check_scratch_equal "unlimited answer" inert q o2.Incr.Session.so_result;
  let o3 = Incr.Session.run ~limit:1 sess toy_net q in
  check_rung "definitive answer serves a smaller budget" "cone" o3;
  Alcotest.(check string) "definitive answer returned"
    (result_json o2.Incr.Session.so_result)
    (result_json o3.Incr.Session.so_result)

(* --- sup queries on the ladder ----------------------------------------- *)

(* Sender->Receiver delay: trigger [c], response [d] (Receiver's
   acknowledgement), so the timed queries run with a monitor. *)
let timed_receiver bound =
  M.automaton ~name:"Receiver" ~initial:"Wait"
    [ M.location ~inv:[ Ta.Clockcons.le "r" bound ] "Busy"; M.location "Wait" ]
    [ M.edge ~sync:(M.Recv "c") ~resets:[ "r" ]
        ~updates:[ ("v", Ta.Expr.int 1) ]
        "Wait" "Busy";
      M.edge ~guard:[ Ta.Clockcons.ge "r" 3 ] ~sync:(M.Send "d") "Busy" "Wait" ]

let timed_net =
  M.network ~name:"timed" ~clocks:[ "x"; "r"; "y" ]
    ~vars:[ ("v", M.flag ()) ]
    ~channels:[ ("c", M.Binary); ("d", M.Broadcast) ]
    [ sender; timed_receiver 7; idler ]

let test_session_sup_queries () =
  let sess = Incr.Session.make ~tag:"timed" () in
  let q = query "sup: c -> d ceiling 100" in
  let o1 = Incr.Session.run sess timed_net q in
  check_rung "sup cold" "full" o1;
  check_scratch_equal "sup cold" timed_net q o1.Incr.Session.so_result;
  (* an inert edit keeps the bound *)
  let inert = with_automaton timed_net "Idler" idler' in
  let o2 = Incr.Session.run sess inert q in
  check_rung "sup inert edit" "cone" o2;
  Alcotest.(check string) "sup kept"
    (result_json o1.Incr.Session.so_result)
    (result_json o2.Incr.Session.so_result);
  (* a constant edit inside the receiver moves the bound *)
  let edited = with_automaton timed_net "Receiver" (timed_receiver 9) in
  let o3 = Incr.Session.run sess edited q in
  check_rung "sup constant edit" "full" o3;
  check_scratch_equal "sup constant edit" edited q o3.Incr.Session.so_result;
  Alcotest.(check bool) "the bound moved" false
    (String.equal
       (result_json o1.Incr.Session.so_result)
       (result_json o3.Incr.Session.so_result));
  (* bounded: same monitor, different query *)
  let qb = query "bounded: c -> d within 20" in
  let ob = Incr.Session.run sess edited qb in
  check_rung "bounded cold" "full" ob;
  check_scratch_equal "bounded" edited qb ob.Incr.Session.so_result

(* --- session ladder ---------------------------------------------------- *)

let test_session_ladder () =
  with_store_dir (fun dir ->
      let disk =
        match Store.Disk.open_ dir with
        | Ok d -> d
        | Error msg -> Alcotest.failf "open store: %s" msg
      in
      let cache = Analysis.Qcache.make disk in
      let sess = Incr.Session.make ~cache ~tag:"test-toy" () in
      let q = query "E<> Receiver.Busy" in
      let o1 = Incr.Session.run sess toy_net q in
      Alcotest.(check string) "cold run answers on the full rung" "full"
        (Incr.Session.rung_name o1.Incr.Session.so_rung);
      check_scratch_equal "full result" toy_net q o1.Incr.Session.so_result;
      (* identical rerun: store rung *)
      let o2 = Incr.Session.run sess toy_net q in
      Alcotest.(check string) "identical rerun hits the store" "store"
        (Incr.Session.rung_name o2.Incr.Session.so_rung);
      (* invisible edit: cone rung *)
      let inert_edit = with_automaton toy_net "Idler" idler' in
      let o3 = Incr.Session.run sess inert_edit q in
      Alcotest.(check string) "invisible edit hits the cone" "cone"
        (Incr.Session.rung_name o3.Incr.Session.so_rung);
      Alcotest.(check string) "cone returns the cached verdict"
        (result_json o1.Incr.Session.so_result)
        (result_json o3.Incr.Session.so_result);
      (* visible constant edit: full rung, scratch-identical *)
      let edited = with_automaton toy_net "Sender" sender_tweaked in
      let o4 = Incr.Session.run sess edited q in
      Alcotest.(check string) "visible edit re-explores on full" "full"
        (Incr.Session.rung_name o4.Incr.Session.so_rung);
      check_scratch_equal "full result after edit" edited q
        o4.Incr.Session.so_result;
      Alcotest.(check int) "full rung reports its visited states"
        o4.Incr.Session.so_result.Q.res_stats.Mc.Explorer.visited
        o4.Incr.Session.so_expanded)

let test_session_persistence () =
  with_store_dir (fun dir ->
      let disk =
        match Store.Disk.open_ dir with
        | Ok d -> d
        | Error msg -> Alcotest.failf "open store: %s" msg
      in
      let cache = Analysis.Qcache.make disk in
      let q = query "A[] v == 0" in
      let sess1 = Incr.Session.make ~cache ~tag:"persist" () in
      let _ = Incr.Session.run sess1 toy_net q in
      (* a new session (fresh process, same store) resumes the ladder *)
      let sess2 = Incr.Session.make ~cache ~tag:"persist" () in
      let edited = with_automaton toy_net "Sender" sender_tweaked in
      let o = Incr.Session.run sess2 edited q in
      Alcotest.(check string) "fresh session re-explores on full" "full"
        (Incr.Session.rung_name o.Incr.Session.so_rung);
      check_scratch_equal "persisted full result" edited q
        o.Incr.Session.so_result;
      (* session files verify, and no graph is written any more *)
      let fsck = Store.Session.fsck disk in
      Alcotest.(check int) "one good session" 1 fsck.Store.Session.sk_ok;
      Alcotest.(check int) "no graphs" 0 fsck.Store.Session.sk_graphs;
      Alcotest.(check (list (pair string string))) "no bad session files" []
        fsck.Store.Session.sk_bad)

(* A store whose every host operation fails: the session file goes
   through the same fault plane as the entries, so the ladder answers
   from scratch on the full rung and leaves no session behind. *)
let test_session_on_failing_store () =
  with_store_dir (fun dir ->
      ignore (Store.Disk.open_ dir);
      let profile =
        match Fault.Profile.parse "eio=1,seed=1" with
        | Ok p -> p
        | Error msg -> Alcotest.failf "profile: %s" msg
      in
      let io = Fault.Io.inject profile Fault.Io.real in
      let disk =
        match Store.Disk.open_ ~io ~retry:Fault.Retry.no_retry dir with
        | Ok d -> d
        | Error msg -> Alcotest.failf "reopen store: %s" msg
      in
      let cache = Analysis.Qcache.make ~warn:ignore disk in
      let q = query "A[] v == 0" in
      let o = Incr.Session.run (Incr.Session.make ~cache ~tag:"sick" ()) toy_net q in
      check_rung "sick store answers on full" "full" o;
      check_scratch_equal "sick store full result" toy_net q o.Incr.Session.so_result;
      Alcotest.(check (list string)) "no session file" []
        (List.filter
           (fun f -> Filename.check_suffix f ".psvs")
           (Array.to_list (Sys.readdir dir))))

let test_session_fsck_catches_corruption () =
  with_store_dir (fun dir ->
      let disk =
        match Store.Disk.open_ dir with
        | Ok d -> d
        | Error msg -> Alcotest.failf "open store: %s" msg
      in
      let cache = Analysis.Qcache.make disk in
      let sess = Incr.Session.make ~cache ~tag:"corrupt" () in
      let _ = Incr.Session.run sess toy_net (query "A[] v == 0") in
      let sessions = Store.Session.list disk in
      Alcotest.(check int) "one session file" 1 (List.length sessions);
      let path = Filename.concat dir (List.hd sessions) in
      let oc = open_out_bin path in
      output_string oc "PSVSESS1\ndeadbeef\n0\n";
      close_out oc;
      let fsck = Store.Session.fsck disk in
      Alcotest.(check int) "no good sessions" 0 fsck.Store.Session.sk_ok;
      Alcotest.(check bool) "corruption reported" true
        (fsck.Store.Session.sk_bad <> []);
      let removed = Store.Session.gc disk in
      Alcotest.(check int) "gc removes the bad session" 1 removed;
      let fsck' = Store.Session.fsck disk in
      Alcotest.(check (list (pair string string))) "clean after gc" []
        fsck'.Store.Session.sk_bad)

(* --- stores written by older builds ------------------------------------ *)

let open_cache dir =
  match Store.Disk.open_ dir with
  | Ok d -> (d, Analysis.Qcache.make d)
  | Error msg -> Alcotest.failf "open store: %s" msg

let store_files dir suffix =
  List.filter
    (fun f -> Filename.check_suffix f suffix)
    (Array.to_list (Sys.readdir dir))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The session file round-trips every field; an absent or garbled file
   loads as an error, never as a session. *)
let test_session_codec () =
  with_store_dir (fun dir ->
      let disk =
        match Store.Disk.open_ dir with
        | Ok d -> d
        | Error msg -> Alcotest.failf "open store: %s" msg
      in
      let qtext = Q.to_string (query "A[] v == 0") in
      let key = Store.Session.session_key ~tag:"codec" ~query:qtext in
      (match Store.Session.load disk key with
       | Error "no session" -> ()
       | Error msg -> Alcotest.failf "absent session: %s" msg
       | Ok _ -> Alcotest.fail "absent session loaded");
      let s =
        { Store.Session.ss_tag = "codec";
          ss_query = qtext;
          ss_net = Xta.Print.to_string toy_net;
          ss_result_key = Store.Key.digest ~query:qtext toy_net;
          ss_manifest = Store.Key.manifest toy_net }
      in
      Store.Session.save disk s;
      (match Store.Session.load disk key with
       | Error msg -> Alcotest.failf "load failed: %s" msg
       | Ok s' ->
         Alcotest.(check string) "tag" s.Store.Session.ss_tag s'.Store.Session.ss_tag;
         Alcotest.(check string) "query" s.Store.Session.ss_query
           s'.Store.Session.ss_query;
         Alcotest.(check string) "network text" s.Store.Session.ss_net
           s'.Store.Session.ss_net;
         Alcotest.(check bool) "result key" true
           (Store.D128.equal s.Store.Session.ss_result_key
              s'.Store.Session.ss_result_key);
         Alcotest.(check bool) "manifest" true
           (Store.Key.manifest_equal s.Store.Session.ss_manifest
              s'.Store.Session.ss_manifest));
      (match Store.Session.list disk with
       | [ f ] -> write_file (Filename.concat dir f) "garbage"
       | fs -> Alcotest.failf "%d session files" (List.length fs));
      match Store.Session.load disk key with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "decoded garbage")

(* Beside every session, the zone-graph blob an older build recorded for
   its delta rung: framed by hand with the reference digest, the payload
   opaque (its magic line, then bytes this build never reads). *)
let write_legacy_graphs dir =
  List.iter
    (fun f ->
      let graph = Filename.chop_suffix f ".psvs" ^ ".psvg" in
      write_file (Filename.concat dir graph)
        (Ref_d128.frame "PSVGRAPH1" ("PSVIG2\n" ^ String.make 64 '\x01')))
    (store_files dir ".psvs")

(* Damage every persisted graph blob. *)
let damage_graphs dir how =
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      match how with
      | `Delete -> Sys.remove p
      | `Truncate ->
        let raw = read_file p in
        write_file p (String.sub raw 0 (String.length raw - 1)))
    (store_files dir ".psvg")

let damage_name = function `Delete -> "deleted" | `Truncate -> "truncated"

(* Run [q] on [toy_net] in one session, add an older build's graph and
   damage it, and hand a fresh session over the same store (a new
   process) to [k]. *)
let with_damaged_session how q k =
  with_store_dir (fun dir ->
      let _, cache = open_cache dir in
      let first = Incr.Session.make ~cache ~tag:"lazy" () in
      let o1 = Incr.Session.run first toy_net q in
      write_legacy_graphs dir;
      damage_graphs dir how;
      let _, cache = open_cache dir in
      k (Incr.Session.make ~cache ~tag:"lazy" ()) o1)

let test_session_cone_without_graph () =
  List.iter
    (fun how ->
      let q = query "E<> Receiver.Busy" in
      with_damaged_session how q (fun sess o1 ->
          let inert = with_automaton toy_net "Idler" idler' in
          let o = Incr.Session.run sess inert q in
          Alcotest.(check string)
            (damage_name how ^ " graph: cone still answers")
            "cone"
            (Incr.Session.rung_name o.Incr.Session.so_rung);
          Alcotest.(check string)
            (damage_name how ^ " graph: stored result")
            (result_json o1.Incr.Session.so_result)
            (result_json o.Incr.Session.so_result)))
    [ `Delete; `Truncate ]

(* A damaged graph an older build left beside the session costs nothing
   on the full rung: the edit is answered from scratch, the session is
   re-persisted, no graph is written, and fsck still reports the
   damaged blob until gc collects it. *)
let test_session_replay_without_graph () =
  List.iter
    (fun how ->
      let q = query "A[] v == 0" in
      with_store_dir (fun dir ->
          let _, cache = open_cache dir in
          ignore (Incr.Session.run (Incr.Session.make ~cache ~tag:"lazy" ()) toy_net q);
          write_legacy_graphs dir;
          damage_graphs dir how;
          let disk, cache = open_cache dir in
          let sess = Incr.Session.make ~cache ~tag:"lazy" () in
          let edited = with_automaton toy_net "Sender" sender_tweaked in
          let o = Incr.Session.run sess edited q in
          Alcotest.(check string)
            (damage_name how ^ " graph: edit answers on full")
            "full"
            (Incr.Session.rung_name o.Incr.Session.so_rung);
          check_scratch_equal
            (damage_name how ^ " graph: full result")
            edited q o.Incr.Session.so_result;
          let fsck = Store.Session.fsck disk in
          Alcotest.(check int) "session re-persisted" 1 fsck.Store.Session.sk_ok;
          Alcotest.(check int) "no good graph" 0 fsck.Store.Session.sk_graphs;
          Alcotest.(check int) "damaged graph reported"
            (match how with `Delete -> 0 | `Truncate -> 1)
            (List.length fsck.Store.Session.sk_bad);
          Alcotest.(check int) "gc collects it"
            (match how with `Delete -> 0 | `Truncate -> 1)
            (Store.Session.gc disk);
          Alcotest.(check (list string)) "no graph left" []
            (store_files dir ".psvg");
          Alcotest.(check int) "session survives gc" 1
            (Store.Session.fsck disk).Store.Session.sk_ok))
    [ `Delete; `Truncate ]

(* A session file framed by hand with the reference digest — the bytes
   the original per-byte fold wrote — must be what the store writes
   today.  Beside it, the graph an older build would have left: this
   build ignores it, answers the edit on the full rung, and fsck stays
   clean. *)
let test_session_reference_frames_replay () =
  with_store_dir (fun dir ->
      let q = query "A[] v == 0" in
      let _, cache = open_cache dir in
      ignore (Incr.Session.run (Incr.Session.make ~cache ~tag:"compat" ()) toy_net q);
      (match store_files dir ".psvs" with
       | [ f ] ->
         let p = Filename.concat dir f in
         let raw = read_file p in
         let framed = Ref_d128.frame "PSVSESS1" (Ref_d128.payload raw) in
         Alcotest.(check bool) "PSVSESS1 bytes unchanged" true
           (String.equal raw framed);
         write_file p framed
       | fs -> Alcotest.failf "%d .psvs files" (List.length fs));
      write_legacy_graphs dir;
      let disk, cache = open_cache dir in
      let edited = with_automaton toy_net "Sender" sender_tweaked in
      let o = Incr.Session.run (Incr.Session.make ~cache ~tag:"compat" ()) edited q in
      Alcotest.(check string) "reference-framed session answers on full" "full"
        (Incr.Session.rung_name o.Incr.Session.so_rung);
      check_scratch_equal "reference-framed full result" edited q
        o.Incr.Session.so_result;
      let fsck = Store.Session.fsck disk in
      Alcotest.(check int) "session verifies" 1 fsck.Store.Session.sk_ok;
      Alcotest.(check int) "older graph verifies" 1 fsck.Store.Session.sk_graphs;
      Alcotest.(check (list (pair string string))) "fsck clean" []
        fsck.Store.Session.sk_bad)

(* --- disk stats corrupt-bytes split ------------------------------------ *)

let test_stats_corrupt_bytes () =
  with_store_dir (fun dir ->
      let disk =
        match Store.Disk.open_ dir with
        | Ok d -> d
        | Error msg -> Alcotest.failf "open store: %s" msg
      in
      let entry key =
        { Store.Entry.en_key = key;
          en_query = "E<> true";
          en_outcome = Mc.Query.Holds;
          en_stats = { Mc.Explorer.visited = 1; stored = 1; frontier = 0 };
          en_budget = Store.Entry.unlimited;
          en_prov =
            { Store.Entry.pv_tool = "test";
              pv_jobs = 1;
              pv_wall_ms = 0.;
              pv_created = 0. } }
      in
      let k1 = Store.D128.of_string "one" and k2 = Store.D128.of_string "two" in
      Store.Disk.insert disk (entry k1);
      Store.Disk.insert disk (entry k2);
      let s0 = Store.Disk.stats disk in
      Alcotest.(check int) "two entries" 2 s0.Store.Disk.st_entries;
      Alcotest.(check int) "no corrupt bytes yet" 0
        s0.Store.Disk.st_corrupt_bytes;
      (* smash one entry *)
      let victim = Filename.concat dir (Store.D128.to_hex k2 ^ ".psve") in
      let garbage = String.make 100 'x' in
      let oc = open_out_bin victim in
      output_string oc garbage;
      close_out oc;
      let s = Store.Disk.stats disk in
      Alcotest.(check int) "one well-formed" 1 s.Store.Disk.st_entries;
      Alcotest.(check int) "one corrupt" 1 s.Store.Disk.st_corrupt;
      Alcotest.(check int) "corrupt bytes separated" 100
        s.Store.Disk.st_corrupt_bytes;
      Alcotest.(check bool) "good bytes exclude the corrupt file" true
        (s.Store.Disk.st_bytes < s0.Store.Disk.st_bytes))

(* --- the answerer ------------------------------------------------------- *)

(* Every route answers what a from-scratch [Mc.Query.eval] does; a
   second [Cached] call is a store hit; a [Session] run climbs the
   ladder (full, then store); and the entry [Serve.evaluate] publishes
   is the one [Qcache.cached] publishes, apart from its wall time and
   creation stamp. *)
let test_answer_routes () =
  let unstamped (e : Store.Entry.t) =
    { e with
      Store.Entry.en_prov =
        { e.Store.Entry.en_prov with
          Store.Entry.pv_wall_ms = 0.;
          pv_created = 0. } }
  in
  List.iter
    (fun (net, text) ->
      let q = query text in
      let scratch = Q.eval net q in
      let answer route = Incr.Answer.run route net q in
      let check_answer label rung (a : Incr.Answer.t) =
        check_scratch_equal (text ^ ": " ^ label) net q a.Incr.Answer.an_result;
        Alcotest.(check string) (text ^ ": " ^ label ^ " rung") rung
          (Option.fold ~none:"none" ~some:Incr.Session.rung_name
             a.Incr.Answer.an_rung)
      in
      check_answer "plain" "none" (answer Incr.Answer.Plain);
      with_store_dir (fun dir ->
          let disk, cache = open_cache dir in
          check_answer "cached cold" "none" (answer (Incr.Answer.Cached cache));
          let hits = Analysis.Qcache.hits cache in
          check_answer "cached warm" "none" (answer (Incr.Answer.Cached cache));
          Alcotest.(check int) (text ^ ": second cached call hits") (hits + 1)
            (Analysis.Qcache.hits cache);
          let key = Analysis.Qcache.key net q in
          let stored () =
            match Store.Disk.lookup disk key with
            | Store.Disk.Hit e -> unstamped e
            | _ -> Alcotest.failf "%s: no entry under the query's key" text
          in
          let cached_entry = stored () in
          Store.Disk.remove disk key;
          let cfg = Analysis.Serve.default_config in
          let request =
            Store.Json.to_string
              (Store.Json.Obj
                 [ ("id", Store.Json.Int 1);
                   ("model", Store.Json.String "m.xta");
                   ("query", Store.Json.String text) ])
          in
          (match
             Analysis.Serve.evaluate cfg ~cache
               (Analysis.Serve.prepare cfg ~cache
                  ~load_model:(fun _ -> Ok net) request)
           with
           | `Ok _ -> ()
           | _ -> Alcotest.failf "%s: serve did not evaluate" text);
          Alcotest.(check bool) (text ^ ": serve publishes the cached entry")
            true
            (stored () = cached_entry));
      with_store_dir (fun dir ->
          let _, cache = open_cache dir in
          let sess = Incr.Session.make ~cache ~tag:"routes" () in
          let a1 = answer (Incr.Answer.Session sess) in
          check_answer "session cold" "full" a1;
          Alcotest.(check int) (text ^ ": full rung expanded")
            scratch.Q.res_stats.Mc.Explorer.visited (Incr.Answer.expanded a1);
          let a2 = answer (Incr.Answer.Session sess) in
          check_answer "session rerun" "store" a2;
          Alcotest.(check int) (text ^ ": store rung expanded") 0
            (Incr.Answer.expanded a2)))
    [ (toy_net, "A[] v == 0"); (timed_net, "sup: c -> d ceiling 100") ]

(* An interrupted [Plain] sup search hands back its snapshot, and
   resuming it through the answerer reproduces the uninterrupted result
   and counts; only a sup search resumes. *)
let test_answer_resume () =
  let q = query "sup: c -> d ceiling 100" in
  let whole = Q.eval timed_net q in
  let visited = whole.Q.res_stats.Mc.Explorer.visited in
  Alcotest.(check bool) "the search has states to cut" true (visited > 2);
  let ctl =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some (visited / 2) }
      ()
  in
  let cut = Incr.Answer.run ~ctl Incr.Answer.Plain timed_net q in
  (match cut.Incr.Answer.an_result.Q.res_outcome with
   | Q.Unknown _ -> ()
   | o -> Alcotest.failf "cut run finished: %a" Q.pp_outcome o);
  let snap =
    match cut.Incr.Answer.an_snapshot with
    | Some s -> s
    | None -> Alcotest.fail "interrupted sup search returned no snapshot"
  in
  let resumed = Incr.Answer.run ~resume:snap Incr.Answer.Plain timed_net q in
  check_scratch_equal "resumed = uninterrupted" timed_net q
    resumed.Incr.Answer.an_result;
  Alcotest.(check bool) "a finished search keeps no snapshot" true
    (resumed.Incr.Answer.an_snapshot = None);
  match
    Incr.Answer.run ~resume:snap Incr.Answer.Plain toy_net (query "A[] v == 0")
  with
  | _ -> Alcotest.fail "resumed a reachability query"
  | exception Invalid_argument _ -> ()

let suite =
  [ Alcotest.test_case "key-v2 manifest" `Quick test_manifest;
    Alcotest.test_case "cone components" `Quick test_cone_components;
    Alcotest.test_case "cone channel chain" `Quick test_cone_channel_chain;
    Alcotest.test_case "cone var aliasing" `Quick test_cone_var_aliasing;
    Alcotest.test_case "cone check" `Quick test_cone_check;
    Alcotest.test_case "full rung = scratch" `Quick
      test_full_rung_matches_scratch;
    Alcotest.test_case "identical net explores nothing" `Quick
      test_identical_net_explores_nothing;
    Alcotest.test_case "full rung after edit" `Quick test_full_rung_after_edit;
    Alcotest.test_case "structural edits re-explore" `Quick
      test_structural_edits_reexplore;
    Alcotest.test_case "cone respects budget" `Quick test_cone_respects_budget;
    Alcotest.test_case "session sup queries" `Quick test_session_sup_queries;
    Alcotest.test_case "session ladder" `Quick test_session_ladder;
    Alcotest.test_case "session persistence" `Quick test_session_persistence;
    Alcotest.test_case "session on a failing store" `Quick
      test_session_on_failing_store;
    Alcotest.test_case "session codec" `Quick test_session_codec;
    Alcotest.test_case "session fsck" `Quick
      test_session_fsck_catches_corruption;
    Alcotest.test_case "cone rung needs no graph" `Quick
      test_session_cone_without_graph;
    Alcotest.test_case "damaged graph falls back to full" `Quick
      test_session_replay_without_graph;
    Alcotest.test_case "reference-framed session replays" `Quick
      test_session_reference_frames_replay;
    Alcotest.test_case "stats corrupt bytes" `Quick test_stats_corrupt_bytes;
    Alcotest.test_case "answer routes" `Quick test_answer_routes;
    Alcotest.test_case "answer resumes a sup search" `Quick test_answer_resume ]
