(* Chaos testing of the incremental ladder: seeded random edit
   sequences (constant tweaks, guard relation flips, automaton
   add/remove) driven through {!Incr.Session.run}, every step compared
   against a from-scratch sequential {!Mc.Query.eval}.

   The bar per rung:
   - [Full] answers must be byte-equal to scratch as Entry JSON —
     outcome, sup AND statistics;
   - [Store_hit] and [Cone_hit] answers carry the producing run's
     statistics by design, so they are compared on verdict kind and sup
     only;
   - the retired [Delta] rung must never answer. *)

module M = Ta.Model
module Q = Mc.Query

let query text =
  match Q.parse text with
  | Ok q -> q
  | Error msg -> Alcotest.failf "bad query %S: %s" text msg

let result_json (r : Q.result) =
  Store.Json.to_string
    (Store.Json.Obj
       [ ("outcome", Store.Entry.outcome_to_json r.Q.res_outcome);
         ("stats", Store.Entry.stats_to_json r.Q.res_stats) ])

let outcome_kind (r : Q.result) =
  match r.Q.res_outcome with
  | Q.Holds -> "holds"
  | Q.Fails _ -> "fails"
  | Q.Sup Mc.Explorer.Sup_unreached -> "sup-unreached"
  | Q.Sup (Mc.Explorer.Sup (v, strict)) ->
    Printf.sprintf "sup%s%d" (if strict then "<" else "=") v
  | Q.Sup (Mc.Explorer.Sup_exceeds c) -> Printf.sprintf "sup>%d" c
  | Q.Unknown _ -> "unknown"

(* The per-rung bar of the preamble. *)
let check_rung where scratch (o : Incr.Session.outcome) =
  match o.Incr.Session.so_rung with
  | Incr.Session.Full ->
    Alcotest.(check string) where (result_json scratch)
      (result_json o.Incr.Session.so_result)
  | Incr.Session.Store_hit | Incr.Session.Cone_hit ->
    Alcotest.(check string) where (outcome_kind scratch)
      (outcome_kind o.Incr.Session.so_result)
  | Incr.Session.Delta -> Alcotest.failf "%s: the retired delta rung answered" where

(* --- model zoo --------------------------------------------------------- *)

let ping_pong =
  let sender =
    M.automaton ~name:"Sender" ~initial:"Idle"
      [ M.location ~inv:[ Ta.Clockcons.le "x" 10 ] "Idle"; M.location "Work" ]
      [ M.edge ~guard:[ Ta.Clockcons.ge "x" 2 ] ~sync:(M.Send "c")
          ~resets:[ "x" ] "Idle" "Work";
        M.edge ~guard:[ Ta.Clockcons.ge "x" 1 ] ~resets:[ "x" ] "Work" "Idle" ]
  and receiver =
    M.automaton ~name:"Receiver" ~initial:"Wait"
      [ M.location "Wait"; M.location ~inv:[ Ta.Clockcons.le "r" 7 ] "Busy" ]
      [ M.edge ~sync:(M.Recv "c") ~resets:[ "r" ]
          ~updates:[ ("v", Ta.Expr.int 1) ]
          "Wait" "Busy";
        M.edge ~guard:[ Ta.Clockcons.ge "r" 3 ] ~sync:(M.Send "d") "Busy"
          "Wait" ]
  in
  M.network ~name:"pingpong" ~clocks:[ "x"; "r" ]
    ~vars:[ ("v", M.flag ()) ]
    ~channels:[ ("c", M.Binary); ("d", M.Broadcast) ]
    [ sender; receiver ]

let gpca_net () =
  Gpca.Model.network ~variant:Gpca.Model.Bolus_only Gpca.Params.default

(* Each case: a base network and the queries chased across its edits. *)
let cases =
  [ ("pingpong-reach", ping_pong, [ "E<> Receiver.Busy"; "A[] v == 0" ]);
    ("pingpong-sup", ping_pong,
     [ "sup: c -> d ceiling 100"; "bounded: c -> d within 50" ]);
    ("gpca-bolus", gpca_net (),
     [ Printf.sprintf "bounded: %s -> %s within %d" Gpca.Model.bolus_req
         Gpca.Model.start_infusion Gpca.Params.req1_bound ])
  ]

(* --- one sequence ------------------------------------------------------ *)

let run_sequence ~seed ~steps (name, base, qtexts) =
  let rng = Random.State.make [| 0x1AC2; seed |] in
  let queries = List.map query qtexts in
  let sess = Incr.Session.make ~tag:(Printf.sprintf "chaos-%s-%d" name seed) () in
  let net = ref base in
  for step = 0 to steps - 1 do
    (if step > 0 then
       let edit = Incr.Edit.random_edit rng !net in
       net := edit.Incr.Edit.ed_net);
    List.iter
      (fun q ->
        let o = Incr.Session.run sess !net q in
        let scratch = Q.eval ~jobs:1 !net q in
        let where =
          Printf.sprintf "%s seed=%d step=%d rung=%s q=%s" name seed step
            (Incr.Session.rung_name o.Incr.Session.so_rung)
            (Q.to_string q)
        in
        check_rung where scratch o)
      queries
  done

(* 60 sequences in total: 20 seeds for each of the two toy cases and 20
   for the GPCA case, 6 edits each — every step checks every query of
   the case against scratch. *)
let test_sequences case () =
  for seed = 1 to 20 do
    run_sequence ~seed ~steps:6 case
  done

(* The same chase through a disk-backed session, exercising the store
   and cone rungs plus the persistence round-trip mid-sequence. *)
let tmp_counter = ref 0

let with_store_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_chaos_incr_%d_%d" (Unix.getpid ()) !tmp_counter)
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

let test_cached_sequences () =
  with_store_dir (fun dir ->
      let disk =
        match Store.Disk.open_ dir with
        | Ok d -> d
        | Error msg -> Alcotest.failf "open store: %s" msg
      in
      let cache = Analysis.Qcache.make disk in
      let q = query "E<> Receiver.Busy" in
      for seed = 100 to 109 do
        let rng = Random.State.make [| 0x1AC2; seed |] in
        let tag = Printf.sprintf "chaos-cached-%d" seed in
        let net = ref ping_pong in
        let sess = ref (Incr.Session.make ~cache ~tag ()) in
        for step = 0 to 5 do
          (if step > 0 then
             let edit = Incr.Edit.random_edit rng !net in
             net := edit.Incr.Edit.ed_net);
          (* every other step simulates a process restart: a fresh
             session over the same store must resume from disk *)
          if step mod 2 = 1 then sess := Incr.Session.make ~cache ~tag ();
          let o = Incr.Session.run !sess !net q in
          let scratch = Q.eval ~jobs:1 !net q in
          let where =
            Printf.sprintf "cached seed=%d step=%d rung=%s" seed step
              (Incr.Session.rung_name o.Incr.Session.so_rung)
          in
          check_rung where scratch o
        done
      done;
      (* the persisted sessions all verify *)
      let fsck = Store.Session.fsck disk in
      Alcotest.(check (list (pair string string))) "all sessions verify" []
        fsck.Store.Session.sk_bad)

let suite =
  List.map
    (fun ((name, _, _) as case) ->
      Alcotest.test_case (name ^ " x20 seeds") `Slow (test_sequences case))
    cases
  @ [ Alcotest.test_case "cached+restart x10 seeds" `Slow
        test_cached_sequences ]
