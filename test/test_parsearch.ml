(* The search loop on fuzz instances against a naive reference, its
   budget and cancellation edges, the ignored [?jobs] of [Mc.Query.eval],
   and the domain pool ([Analysis.Pool.map] on the helper domains of
   [Mc.Park]), the one parallelism left.  The suite keeps its name so its
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

(* What a naive sequential sup search reaches: a FIFO queue and, per
   discrete state, a plain list of live zones — a newcomer some live zone
   includes is dropped, otherwise it replaces every live zone it
   includes.  [Mc.Explorer.search] must reproduce it exactly: sup,
   counters and, under a budget, the cut. *)
type ref_run = {
  rr_sup : Mc.Explorer.sup_result;
  rr_visited : int;
  rr_stored : int;
  rr_live : (int * int array * int array * int * int array) list;
      (* id, locs, vars, mon, zone — by id *)
  rr_queue : int list;  (* live waiting ids, FIFO *)
}

let reference_sup ?(budget = max_int) t ~clock ~ceiling =
  let comp = Mc.Explorer.compiled t in
  let ci = Ta.Compiled.clock_index comp clock in
  let waiting = Mc.Explorer.mon_in t "Waiting" in
  let pool = Zone.Dbm.Pool.create (comp.Ta.Compiled.c_nclocks + 1) in
  let live = Hashtbl.create 64 and dead = Hashtbl.create 64 in
  let queue = Queue.create () in
  let next = ref 0 and visited = ref 0 in
  let best = ref Mc.Explorer.Sup_unreached in
  let offer (st : Mc.Explorer.state) =
    let key = (st.Mc.Explorer.st_locs, st.st_vars, st.st_mon) in
    let z = st.st_zone in
    let zs = Option.value (Hashtbl.find_opt live key) ~default:[] in
    if not (List.exists (fun (_, y) -> Zone.Dbm.includes y z) zs) then begin
      let victims, kept =
        List.partition (fun (_, y) -> Zone.Dbm.includes z y) zs
      in
      List.iter (fun (v, _) -> Hashtbl.replace dead v ()) victims;
      let id = !next in
      incr next;
      Hashtbl.replace live key ((id, z) :: kept);
      Queue.push (id, st) queue;
      if waiting st then begin
        let b = Zone.Dbm.sup_clock z ci in
        if Zone.Bound.is_infinite b then best := Mc.Explorer.Sup_exceeds ceiling
        else
          let v = Zone.Bound.constant b and strict = Zone.Bound.is_strict b in
          match !best with
          | Mc.Explorer.Sup_exceeds _ -> ()
          | Mc.Explorer.Sup_unreached -> best := Mc.Explorer.Sup (v, strict)
          | Mc.Explorer.Sup (v0, s0) ->
            if v > v0 || (v = v0 && s0 && not strict) then
              best := Mc.Explorer.Sup (v, strict)
      end
    end
  in
  let initial = Mc.Explorer.initial_state t in
  if not (Zone.Dbm.is_empty initial.Mc.Explorer.st_zone) then offer initial;
  let cut = ref false in
  while (not !cut) && not (Queue.is_empty queue) do
    if !visited >= budget then cut := true
    else begin
      let id, st = Queue.pop queue in
      if not (Hashtbl.mem dead id) then begin
        incr visited;
        List.iter
          (fun cd ->
            match Mc.Explorer.fire t pool st cd with
            | Some s -> offer s
            | None -> ())
          (Mc.Explorer.candidates t st)
      end
    end
  done;
  let rr_live =
    Hashtbl.fold
      (fun (locs, vars, mon) zs acc ->
        List.map (fun (id, z) -> (id, locs, vars, mon, Zone.Dbm.to_ints z)) zs
        @ acc)
      live []
    |> List.sort compare
  in
  { rr_sup = !best;
    rr_visited = !visited;
    rr_stored = !next;
    rr_live;
    rr_queue =
      Queue.fold
        (fun acc (id, _) -> if Hashtbl.mem dead id then acc else id :: acc)
        [] queue
      |> List.rev }

let fuzz_instance (k, index) =
  Diff.Gen.instance ~seed:16 ~index (List.nth Diff.Gen.all_shapes k)

let fuzz_explorer (inst : Diff.Gen.instance) =
  let monitor =
    Mc.Monitor.delay ~trigger:inst.Diff.Gen.trigger
      ~response:inst.Diff.Gen.response ~clock:"psv_delay_mon"
      ~ceiling:inst.Diff.Gen.ceiling ()
  in
  Mc.Explorer.make ~monitor inst.Diff.Gen.net

let arb_fuzz_instance =
  QCheck.make
    ~print:(fun ki -> (fuzz_instance ki).Diff.Gen.id)
    QCheck.Gen.(pair (int_range 0 3) (int_range 0 9_999))

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
             (Mc.Explorer.snapshot_entries snap)
         in
         if List.sort compare entries <> rcut.rr_live then
           fail "cut: entries differ";
         if Array.to_list (Mc.Explorer.snapshot_queue snap) <> rcut.rr_queue
         then fail "cut: queue differs";
         if Mc.Explorer.
              (snapshot_visited snap, snapshot_stored snap)
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
            (Test_mc.store_matches_reference ~subsume:true
               ~max_const:
                 (Array.fold_left max 0
                    (Mc.Explorer.compiled t).Ta.Compiled.c_max_consts)
               ~dim (List.rev zones)
              : Test_mc.store_run))
        streams;
      true)

(* The helper domains of [Mc.Park] outlive a pool map.  A jobs-2 map of
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
  if Mc.Park.cap >= 1 then begin
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

(* More domains than the host runs leave at most [cap] helpers parked. *)
let test_park_cap () =
  let over = Mc.Park.recommended_jobs () + 2 in
  ignore
    (Analysis.Pool.map ~jobs:over
       (fun _ -> Unix.sleepf 0.01)
       (List.init over Fun.id)
      : unit list);
  Alcotest.(check int) "cap" (max 0 (Mc.Park.recommended_jobs () - 1))
    Mc.Park.cap;
  let parked = Mc.Park.parked () in
  if parked > Mc.Park.cap then
    Alcotest.failf "%d helpers parked after a jobs-%d map, cap %d" parked
      over Mc.Park.cap

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
    Alcotest.test_case "parked helpers capped" `Quick test_park_cap ]
