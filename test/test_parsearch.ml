(* The search loop on fuzz instances against a naive reference, its
   budget and cancellation edges, the ignored [?jobs] of [Mc.Query.eval],
   and the domain pool ([Analysis.Pool.map] on its helper domains), the
   one parallelism left.  The suite keeps its name so its
   test ids stay stable. *)

let pp_sup = Mc.Explorer.pp_sup_result

let railroad_sup ?ctl () =
  Mc.Query.max_delay ?ctl (Test_runctl.railroad_psm ()) ~trigger:"m_Train"
    ~response:"c_GateDown" ~ceiling:320

(* [Mc.Query.eval]'s [jobs] is accepted and ignored: every value gives
   the sequential answer, statistics included. *)
let test_jobs_ignored () =
  let net = Test_runctl.railroad_psm () in
  let q =
    Mc.Query.Sup_delay
      { trigger = "m_Train"; response = "c_GateDown"; ceiling = 320 }
  in
  let seq = Mc.Query.eval net q in
  List.iter
    (fun jobs ->
      let r = Mc.Query.eval ~jobs net q in
      if r <> seq then
        Alcotest.failf "eval ~jobs:%d: %a (%d visited) <> %a (%d visited)" jobs
          Mc.Query.pp_outcome r.Mc.Query.res_outcome
          r.Mc.Query.res_stats.Mc.Explorer.visited Mc.Query.pp_outcome
          seq.Mc.Query.res_outcome seq.Mc.Query.res_stats.Mc.Explorer.visited)
    [ 1; 2; 4 ]

let test_precancelled () =
  let ctl = Mc.Runctl.create () in
  Mc.Runctl.cancel ctl;
  let r = railroad_sup ~ctl () in
  if r.Mc.Explorer.so_interrupt <> Some Mc.Runctl.Cancelled then
    Alcotest.fail "expected a cancellation interrupt";
  Alcotest.(check int) "nothing visited" 0
    r.Mc.Explorer.so_stats.Mc.Explorer.visited;
  Alcotest.(check bool) "sup unreached" true
    (r.Mc.Explorer.so_sup = Mc.Explorer.Sup_unreached)

let states_budget n =
  Mc.Runctl.create
    ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some n } ()

(* Under a state budget the partial sup stays a lower bound on the true
   sup (any stored state is reachable). *)
let test_budget_partial_sup () =
  let full = railroad_sup () in
  let le_sup partial total =
    match partial, total with
    | Mc.Explorer.Sup_unreached, _ -> true
    | _, Mc.Explorer.Sup_exceeds _ -> true
    | Mc.Explorer.Sup (v, _), Mc.Explorer.Sup (w, _) -> v <= w
    | (Mc.Explorer.Sup_exceeds _ | Mc.Explorer.Sup _), _ -> false
  in
  let r = railroad_sup ~ctl:(states_budget 200) () in
  (match r.Mc.Explorer.so_interrupt with
   | Some (Mc.Runctl.State_budget 200) -> ()
   | other ->
     Alcotest.failf "expected a state-budget interrupt, got %a"
       Fmt.(option Mc.Runctl.pp_reason)
       other);
  if not (le_sup r.Mc.Explorer.so_sup full.Mc.Explorer.so_sup) then
    Alcotest.failf "partial sup %a above the true sup %a" pp_sup
      r.Mc.Explorer.so_sup pp_sup full.Mc.Explorer.so_sup

(* The visited count stops exactly at the state budget. *)
let test_budget_never_overshoots () =
  let r = railroad_sup ~ctl:(states_budget 64) () in
  (match r.Mc.Explorer.so_interrupt with
   | Some (Mc.Runctl.State_budget 64) -> ()
   | other ->
     Alcotest.failf "expected State_budget 64, got %a"
       Fmt.(option Mc.Runctl.pp_reason)
       other);
  Alcotest.(check int) "visited" 64 r.Mc.Explorer.so_stats.Mc.Explorer.visited

(* [jobs] above the host's cores is clamped, so no case here starts
   more domains than the host runs. *)
let test_pool_map () =
  let items = List.init 37 Fun.id in
  let seq = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d square map" jobs)
        seq
        (Analysis.Pool.map ~jobs (fun i -> i * i) items))
    [ 1; 2; 4; 64 ];
  (* exception propagation *)
  match
    Analysis.Pool.map ~jobs:4
      (fun i -> if i = 20 then failwith "boom" else i)
      items
  with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Failure msg when msg = "boom" -> ()

(* --- the search loop on fuzz instances ------------------------------------ *)

(* The naive reference search of [Test_mc]. *)
type ref_run = Test_mc.ref_run = {
  rr_sup : Mc.Explorer.sup_result;
  rr_visited : int;
  rr_stored : int;
  rr_live : (int * int array * int array * int * int array) list;
  rr_queue : int list;
}

let reference_sup = Test_mc.reference_sup

let fuzz_instance = Test_runctl.fuzz_instance
let fuzz_explorer = Test_runctl.fuzz_explorer
let arb_fuzz_instance = Test_runctl.arb_fuzz_instance

let snapshot_bytes snap =
  let file = Filename.temp_file "psv_test_snap" ".psvsnap" in
  Mc.Explorer.save_snapshot file snap;
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  bytes

(* Sup, visited, stored and frontier equal the reference, and a cut at
   half the visited count is the reference's cut, byte for byte across
   runs; the cut resumes to the reference's sup and counters. *)
let prop_one_loop =
  QCheck.Test.make ~count:24
    ~name:"fuzz instances: one search loop = naive reference"
    arb_fuzz_instance (fun ki ->
      let inst = fuzz_instance ki in
      let clock = "psv_delay_mon" and ceiling = inst.Diff.Gen.ceiling in
      let sup ?ctl ?resume () =
        let t = fuzz_explorer inst in
        Mc.Explorer.sup_clock ?ctl ?resume t
          ~pred:(Mc.Explorer.mon_in t "Waiting") ~clock
      in
      let fail fmt =
        QCheck.Test.fail_reportf ("%s: " ^^ fmt) inst.Diff.Gen.id
      in
      let full = reference_sup (fuzz_explorer inst) ~clock ~ceiling in
      let s1 = sup () in
      let st = s1.Mc.Explorer.so_stats in
      if s1.Mc.Explorer.so_sup <> full.rr_sup then fail "sup differs";
      if (st.Mc.Explorer.visited, st.stored, st.frontier)
         <> (full.rr_visited, full.rr_stored, 0)
      then
        fail "visited/stored/frontier %d/%d/%d, reference %d/%d/0"
          st.visited st.stored st.frontier full.rr_visited full.rr_stored;
      let half = max 1 (full.rr_visited / 2) in
      let cut () = sup ~ctl:(states_budget half) () in
      let c1 = cut ()
      and rcut =
        reference_sup ~budget:half (fuzz_explorer inst) ~clock ~ceiling
      in
      (match c1.Mc.Explorer.so_snapshot with
       | None ->
         if full.rr_visited > half then fail "cut at %d: no snapshot" half
       | Some snap ->
         let entries =
           List.map
             (fun se ->
               Mc.Explorer.
                 (se.se_id, se.se_locs, se.se_vars, se.se_mon, se.se_zone))
             snap.Mc.Explorer.snap_entries
         in
         if entries <> rcut.rr_live then fail "cut: entries differ";
         if Array.to_list snap.Mc.Explorer.snap_queue <> rcut.rr_queue
         then fail "cut: queue differs";
         if Mc.Explorer.(snap.snap_visited, snap.snap_next_id)
            <> (rcut.rr_visited, rcut.rr_stored)
         then fail "cut: counters differ";
         let again = Option.get (cut ()).Mc.Explorer.so_snapshot in
         if snapshot_bytes snap <> snapshot_bytes again then
           fail "cut: snapshot bytes differ between runs";
         let r = sup ~resume:snap () in
         let rs = r.Mc.Explorer.so_stats in
         if r.Mc.Explorer.so_sup <> full.rr_sup then fail "resumed sup differs";
         if (rs.Mc.Explorer.visited, rs.stored)
            <> (full.rr_visited, full.rr_stored)
         then fail "resumed counters differ");
      true)

(* The search's store is the [Explorer.Passed] node store: the zone
   stream one discrete state receives in a fuzz exploration, offered to
   a node, matches the naive reference of [Test_mc]. *)
let prop_owner_store_matches_reference =
  QCheck.Test.make ~count:12
    ~name:"fuzz zone streams: per-owner store = reference"
    arb_fuzz_instance (fun ki ->
      let t = fuzz_explorer (fuzz_instance ki) in
      let dim = (Mc.Explorer.compiled t).Ta.Compiled.c_nclocks + 1 in
      let streams = Hashtbl.create 64 in
      let record (st : Mc.Explorer.state) =
        let key = (st.Mc.Explorer.st_locs, st.st_vars, st.st_mon) in
        let z = Zone.Dbm.of_ints ~dim (Zone.Dbm.to_ints st.st_zone) in
        Hashtbl.replace streams key
          (z :: Option.value (Hashtbl.find_opt streams key) ~default:[])
      in
      let expand pool st =
        List.map
          (fun cd ->
            let succ = Mc.Explorer.fire t pool st cd in
            Option.iter record succ;
            (cd, succ))
          (Mc.Explorer.candidates t st)
      in
      ignore
        (Mc.Explorer.sup_clock ~expand t ~pred:(Mc.Explorer.mon_in t "Waiting")
           ~clock:"psv_delay_mon"
          : Mc.Explorer.sup_outcome);
      Hashtbl.iter
        (fun _ zones ->
          ignore
            (Test_mc.store_matches_reference
               ~max_const:
                 (Array.fold_left max 0
                    (Mc.Explorer.compiled t).Ta.Compiled.c_max_consts)
               ~dim (List.rev zones)
              : Test_mc.store_run))
        streams;
      true)

(* The pool's helper domains outlive a map.  A jobs-2 map of
   searches runs on the caller and one helper, and the helper goes back
   to the park before the map returns, so the next map gets the same
   one -- unless the host has one core and nothing may stay parked. *)
let test_helper_reuse () =
  let t = Mc.Explorer.make (Test_runctl.railroad_psm ()) in
  let me = (Domain.self () :> int) in
  let helpers =
    List.init 20 (fun _ ->
        let doms =
          Analysis.Pool.map ~jobs:2
            (fun _ ->
              (* long enough that both domains take an item *)
              ignore
                (Mc.Explorer.reachable t (fun _ -> false)
                  : Mc.Explorer.reach_result);
              Unix.sleepf 0.002;
              (Domain.self () :> int))
            [ 0; 1; 2; 3 ]
        in
        List.sort_uniq compare (List.filter (fun d -> d <> me) doms))
  in
  if Analysis.Pool.cap >= 1 then begin
    if List.for_all (( = ) []) helpers then
      Alcotest.fail "no map item ran on a helper";
    List.iteri
      (fun i ds ->
        if ds <> [] && ds <> List.hd (List.filter (( <> ) []) helpers) then
          Alcotest.failf "map %d ran on helper %s" i
            (String.concat "," (List.map string_of_int ds)))
      helpers
  end

(* Searches run by the pool answer as they do on the caller. *)
let test_pool_searches () =
  let run (name, net, trigger, response, ceiling) =
    let r = Mc.Query.max_delay (net ()) ~trigger ~response ~ceiling in
    if r.Mc.Explorer.so_interrupt <> None then
      Alcotest.failf "%s: run was interrupted" name;
    (r.Mc.Explorer.so_sup, r.Mc.Explorer.so_stats)
  in
  let cases =
    [ ("railroad-periodic25", (fun () -> Test_runctl.railroad_psm ()),
       "m_Train", "c_GateDown", 320);
      ( "railroad-race",
        (fun () ->
          Test_runctl.railroad_psm ~headway:0
            ~invocation:(Scheme.Aperiodic 0) ()),
        "m_Train", "c_GateDown", 320 );
      ( "gpca-pim-mc",
        (fun () ->
          Gpca.Model.network ~variant:Gpca.Model.Bolus_only
            Gpca.Params.default),
        Gpca.Model.bolus_req, Gpca.Model.start_infusion, 1000 ) ]
  in
  Alcotest.(check bool) "pool answers = caller answers" true
    (List.map run cases = Analysis.Pool.map ~jobs:2 run cases)

(* After a failed map item and a raising search, the park still hands
   out working helpers. *)
let test_park_recovers () =
  let expected = (railroad_sup ()).Mc.Explorer.so_sup in
  let answers_again after =
    let sups =
      Analysis.Pool.map ~jobs:2
        (fun _ -> (railroad_sup ()).Mc.Explorer.so_sup)
        [ 0; 1 ]
    in
    List.iter
      (fun s ->
        if s <> expected then
          Alcotest.failf "after %s: pool sup %a <> sequential %a" after pp_sup
            s pp_sup expected)
      sups;
    Alcotest.(check (list int))
      ("pool map after " ^ after)
      (List.init 9 (fun i -> i * i))
      (Analysis.Pool.map ~jobs:2 (fun i -> i * i) (List.init 9 Fun.id))
  in
  (match
     Analysis.Pool.map ~jobs:2
       (fun i -> if i = 3 then failwith "item" else i)
       (List.init 9 Fun.id)
   with
   | _ -> Alcotest.fail "map item exception was swallowed"
   | exception Failure _ -> ());
  answers_again "a failed map item";
  let t = Mc.Explorer.make (Test_runctl.railroad_psm ()) in
  (match
     Analysis.Pool.map ~jobs:2
       (fun _ -> Mc.Explorer.reachable t (fun _ -> failwith "poisoned"))
       [ 0; 1 ]
   with
   | _ -> Alcotest.fail "a raising predicate was swallowed"
   | exception Failure _ -> ());
  answers_again "a raising search"

(* An oversubscribed map is clamped to the host's cores: it starts at
   most [cap] helpers and leaves at most [cap] parked. *)
let test_park_cap () =
  let over = Analysis.Pool.recommended_jobs () + 2 in
  let me = (Domain.self () :> int) in
  let doms =
    Analysis.Pool.map ~jobs:over
      (fun _ ->
        Unix.sleepf 0.01;
        (Domain.self () :> int))
      (List.init over Fun.id)
  in
  let helpers = List.sort_uniq compare (List.filter (( <> ) me) doms) in
  Alcotest.(check int) "cap" (max 0 (Analysis.Pool.recommended_jobs () - 1))
    Analysis.Pool.cap;
  if List.length helpers > Analysis.Pool.cap then
    Alcotest.failf "a jobs-%d map ran on %d helpers, cap %d" over
      (List.length helpers) Analysis.Pool.cap;
  let parked = Analysis.Pool.parked () in
  if parked > Analysis.Pool.cap then
    Alcotest.failf "%d helpers parked after a jobs-%d map, cap %d" parked
      over Analysis.Pool.cap

exception Item_failed

let[@inline never] item_fails () = raise Item_failed

(* An item's exception reaches the caller with the backtrace of its
   raise, whether the item ran on the caller or on a helper.  The
   caller's items are slow, so the helper claims some. *)
let test_pool_backtrace () =
  let me = (Domain.self () :> int) in
  let on_caller () = (Domain.self () :> int) = me in
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was)
    (fun () ->
      List.iter
        (fun (where, fails) ->
          match
            Analysis.Pool.map ~jobs:2
              (fun i ->
                Unix.sleepf (if on_caller () then 0.02 else 0.002);
                if fails () then item_fails ();
                i)
              (List.init 8 Fun.id)
          with
          | _ -> Alcotest.failf "on %s: map item exception was swallowed" where
          | exception Item_failed ->
            let bt =
              Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
            in
            if not (Test_codegen.contains bt "item_fails") then
              Alcotest.failf "on %s: backtrace does not name item_fails:\n%s"
                where bt)
        (("the caller", on_caller)
        :: (if Analysis.Pool.cap >= 1 then
              [ ("a helper", fun () -> not (on_caller ())) ]
            else [])))

(* A parked helper exits once it has waited [idle_s] for a job; the next
   map spawns a fresh one, which answers as the caller does. *)
let test_idle_exit () =
  let expected = (railroad_sup ()).Mc.Explorer.so_sup in
  ignore
    (Analysis.Pool.map ~jobs:2
       (fun i ->
         Unix.sleepf 0.002;
         i)
       [ 0; 1; 2; 3 ]
      : int list);
  let deadline = Unix.gettimeofday () +. Analysis.Pool.idle_s +. 1. in
  while Analysis.Pool.parked () > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check int) "parked after the idle time" 0 (Analysis.Pool.parked ());
  List.iter
    (fun s ->
      if s <> expected then
        Alcotest.failf "after idle exit: pool sup %a <> sequential %a" pp_sup s
          pp_sup expected)
    (Analysis.Pool.map ~jobs:2
       (fun _ -> (railroad_sup ()).Mc.Explorer.so_sup)
       [ 0; 1 ])

let suite =
  [ Alcotest.test_case "jobs=1 byte-identical to sequential" `Quick
      test_jobs_ignored;
    Alcotest.test_case "pre-cancelled ctl" `Quick test_precancelled;
    Alcotest.test_case "budget partial sup is a lower bound" `Quick
      test_budget_partial_sup;
    Alcotest.test_case "state budget never overshoots" `Quick
      test_budget_never_overshoots;
    Alcotest.test_case "pool_map" `Quick test_pool_map;
    QCheck_alcotest.to_alcotest prop_one_loop;
    QCheck_alcotest.to_alcotest prop_owner_store_matches_reference;
    Alcotest.test_case "helper domain reused across searches" `Quick
      test_helper_reuse;
    Alcotest.test_case "pool map over searches" `Quick test_pool_searches;
    Alcotest.test_case "park recovers after failures" `Quick
      test_park_recovers;
    Alcotest.test_case "parked helpers capped" `Quick test_park_cap;
    Alcotest.test_case "pool map keeps the item's backtrace" `Quick
      test_pool_backtrace;
    Alcotest.test_case "idle helpers exit" `Quick test_idle_exit ]
