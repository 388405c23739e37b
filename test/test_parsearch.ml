(* Determinism of the search loop across domain counts: for every
   [jobs], verdicts and sup values must match the sequential search
   exactly — on completed runs, under injected cancellation, and under
   budget interrupts (where the partial sup must stay a sound lower
   bound).  jobs = 1 must be byte-identical to the sequential search. *)

open Ta

let params = Gpca.Params.default

(* CI sets PSV_TEST_JOBS to stress a specific worker count on multicore
   runners; it is appended to the default ladder. *)
let jobs_list =
  let base = [ 1; 2; 4 ] in
  match Sys.getenv_opt "PSV_TEST_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j when j > 0 && not (List.mem j base) -> base @ [ j ]
     | _ -> base)
  | None -> base

let gpca_pim () = Gpca.Model.network ~variant:Gpca.Model.Bolus_only params

let gpca_psm =
  lazy (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net

(* The racing railroad PSM: no headway between trains, aperiodic
   invocation — its m-to-c delay is unbounded, so the sup query answers
   [Sup_exceeds] and the bounded-response check refutes. *)
let railroad_race_psm () =
  Test_runctl.railroad_psm ~headway:0 ~invocation:(Scheme.Aperiodic 0) ()

(* name, net thunk, trigger, response, ceiling *)
let sup_cases () =
  let gpca_ceiling =
    2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc
  in
  [ ("gpca-pim-mc", gpca_pim, Gpca.Model.bolus_req, Gpca.Model.start_infusion,
     1000);
    ( "gpca-psm-input",
      (fun () -> Lazy.force gpca_psm),
      Gpca.Model.bolus_req,
      Transform.Names.input_chan Gpca.Model.bolus_req,
      gpca_ceiling );
    ( "railroad-periodic25",
      (fun () -> Test_runctl.railroad_psm ()),
      "m_Train", "c_GateDown", 320 );
    ("railroad-race", railroad_race_psm, "m_Train", "c_GateDown", 320) ]

let pp_sup = Mc.Explorer.pp_sup_result

let test_sup_determinism () =
  List.iter
    (fun (name, net, trigger, response, ceiling) ->
      let seq =
        Mc.Query.max_delay (net ()) ~trigger ~response ~ceiling
      in
      Alcotest.(check bool)
        (name ^ ": sequential run completes")
        true
        (seq.Mc.Explorer.so_interrupt = None);
      List.iter
        (fun jobs ->
          let par =
            Mc.Query.max_delay ~jobs (net ()) ~trigger ~response
              ~ceiling
          in
          if par.Mc.Explorer.so_interrupt <> None then
            Alcotest.failf "%s: jobs=%d run was interrupted" name jobs;
          if par.Mc.Explorer.so_sup <> seq.Mc.Explorer.so_sup then
            Alcotest.failf "%s: jobs=%d sup %a <> sequential %a" name jobs
              pp_sup par.Mc.Explorer.so_sup pp_sup
              seq.Mc.Explorer.so_sup)
        jobs_list)
    (sup_cases ())

(* jobs = 1 is the sequential search: same sup, and the same
   order-dependent statistics, as the default entry point. *)
let test_jobs1_byte_identical () =
  let net = Test_runctl.railroad_psm () in
  let monitor =
    Mc.Monitor.delay ~trigger:"m_Train" ~response:"c_GateDown"
      ~clock:"psv_delay_mon" ~ceiling:320 ()
  in
  let t = Mc.Explorer.make ~monitor net in
  let pred = Mc.Explorer.mon_in t "Waiting" in
  let seq = Mc.Explorer.sup_clock t ~pred ~clock:"psv_delay_mon" in
  let par = Mc.Explorer.sup_clock ~jobs:1 t ~pred ~clock:"psv_delay_mon" in
  Alcotest.(check bool) "same sup" true
    (par.Mc.Explorer.so_sup = seq.Mc.Explorer.so_sup);
  Alcotest.(check int) "same visited" seq.Mc.Explorer.so_stats.Mc.Explorer.visited
    par.Mc.Explorer.so_stats.Mc.Explorer.visited;
  Alcotest.(check int) "same stored" seq.Mc.Explorer.so_stats.Mc.Explorer.stored
    par.Mc.Explorer.so_stats.Mc.Explorer.stored;
  Alcotest.(check int) "same frontier"
    seq.Mc.Explorer.so_stats.Mc.Explorer.frontier
    par.Mc.Explorer.so_stats.Mc.Explorer.frontier

let test_verdict_determinism () =
  let check_verdicts name net ~bound expected =
    List.iter
      (fun jobs ->
        let v =
          Psv.verify_response ~jobs (net ()) ~trigger:"m_Train"
            ~response:"c_GateDown" ~bound
        in
        if v <> expected then
          Alcotest.failf "%s: jobs=%d verdict %a, expected %a" name jobs
            Mc.Query.pp_outcome v Mc.Query.pp_outcome expected)
      jobs_list
  in
  check_verdicts "railroad-periodic25 |= P(320)"
    (fun () -> Test_runctl.railroad_psm ())
    ~bound:320 Mc.Query.Holds;
  check_verdicts "railroad-race |/= P(320)" railroad_race_psm ~bound:320
    (Mc.Query.Fails None)

let test_query_eval_jobs () =
  let net = gpca_pim () in
  let run text =
    match Mc.Query.parse text with
    | Error msg -> Alcotest.failf "parse %S: %s" text msg
    | Ok q ->
      List.map
        (fun jobs -> (jobs, (Mc.Query.eval ~jobs net q).Mc.Query.res_outcome))
        jobs_list
  in
  List.iter
    (fun (jobs, o) ->
      if o <> Mc.Query.Holds then
        Alcotest.failf "E<> Pump.Infusing: jobs=%d not Holds" jobs)
    (run "E<> Pump.Infusing");
  (* the PIM meets REQ1, and refuting its negation needs a full sweep *)
  List.iter
    (fun (jobs, o) ->
      if o <> Mc.Query.Holds then
        Alcotest.failf "bounded within 500: jobs=%d not Holds" jobs)
    (run
       (Printf.sprintf "bounded: %s -> %s within 500" Gpca.Model.bolus_req
          Gpca.Model.start_infusion))

let test_precancelled () =
  List.iter
    (fun jobs ->
      let ctl = Mc.Runctl.create () in
      Mc.Runctl.cancel ctl;
      let r =
        Mc.Query.max_delay ~jobs ~ctl (Test_runctl.railroad_psm ())
          ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320
      in
      if r.Mc.Explorer.so_interrupt <> Some Mc.Runctl.Cancelled then
        Alcotest.failf "jobs=%d: expected a cancellation interrupt" jobs;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: nothing visited" jobs)
        0 r.Mc.Explorer.so_stats.Mc.Explorer.visited;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: sup unreached" jobs)
        true
        (r.Mc.Explorer.so_sup = Mc.Explorer.Sup_unreached))
    jobs_list

(* Under a state budget the parallel partial sup must stay a lower
   bound on the true sup (any stored state is reachable). *)
let test_budget_partial_sup () =
  let full =
    Mc.Query.max_delay (Test_runctl.railroad_psm ())
      ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320
  in
  let le_sup partial total =
    match partial, total with
    | Mc.Explorer.Sup_unreached, _ -> true
    | _, Mc.Explorer.Sup_exceeds _ -> true
    | Mc.Explorer.Sup (v, _), Mc.Explorer.Sup (w, _) -> v <= w
    | (Mc.Explorer.Sup_exceeds _ | Mc.Explorer.Sup _), _ -> false
  in
  List.iter
    (fun jobs ->
      let ctl =
        Mc.Runctl.create
          ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some 200 }
          ()
      in
      let r =
        Mc.Query.max_delay ~jobs ~ctl (Test_runctl.railroad_psm ())
          ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320
      in
      (match r.Mc.Explorer.so_interrupt with
       | Some (Mc.Runctl.State_budget 200) -> ()
       | other ->
         Alcotest.failf "jobs=%d: expected a state-budget interrupt, got %a"
           jobs
           Fmt.(option Mc.Runctl.pp_reason)
           other);
      if not (le_sup r.Mc.Explorer.so_sup full.Mc.Explorer.so_sup)
      then
        Alcotest.failf "jobs=%d: partial sup %a above the true sup %a" jobs
          pp_sup r.Mc.Explorer.so_sup pp_sup full.Mc.Explorer.so_sup)
    jobs_list

(* Witness chains found in parallel must replay: the sequential replay
   of the chain re-checks feasibility edge by edge. *)
let test_timed_witness_feasible () =
  let t = Mc.Explorer.make (gpca_pim ()) in
  let pred = Mc.Explorer.at t ~aut:"Pump" ~loc:"Infusing" in
  List.iter
    (fun jobs ->
      match Mc.Explorer.timed_trace ~jobs t pred with
      | Some steps ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: non-empty witness" jobs)
          true (steps <> [])
      | None -> Alcotest.failf "jobs=%d: no witness to Pump.Infusing" jobs)
    jobs_list

(* Checkpoint/resume across worker counts: a budget-cut run at any
   [jobs] emits a snapshot that — through the on-disk PSVSNAP2
   round-trip, as psv --checkpoint/--resume does — resumes at any
   other [jobs] to the same sup as an uninterrupted run. *)
let test_parallel_checkpoint_resume () =
  let query ?jobs ?ctl ?resume () =
    Mc.Query.max_delay ?jobs ?ctl ?resume
      (Test_runctl.railroad_psm ()) ~trigger:"m_Train"
      ~response:"c_GateDown" ~ceiling:320
  in
  let budget_ctl () =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some 200 }
      ()
  in
  let full = query () in
  Alcotest.(check bool) "reference run completes" true
    (full.Mc.Explorer.so_interrupt = None);
  List.iter
    (fun (cut_jobs, resume_jobs) ->
      let cut = query ~jobs:cut_jobs ~ctl:(budget_ctl ()) () in
      (match cut.Mc.Explorer.so_interrupt with
       | Some (Mc.Runctl.State_budget _) -> ()
       | other ->
         Alcotest.failf "cut at jobs=%d: expected a state-budget interrupt, got %a"
           cut_jobs
           Fmt.(option Mc.Runctl.pp_reason)
           other);
      let snap =
        match cut.Mc.Explorer.so_snapshot with
        | Some s -> s
        | None ->
          Alcotest.failf "cut at jobs=%d: interrupted run carries no snapshot"
            cut_jobs
      in
      let file = Filename.temp_file "psv_test_snap" ".psvsnap" in
      Mc.Explorer.save_snapshot file snap;
      let snap =
        match Mc.Explorer.load_snapshot file with
        | Ok s -> s
        | Error msg -> Alcotest.failf "snapshot reload: %s" msg
      in
      Sys.remove file;
      let resumed = query ~jobs:resume_jobs ~resume:snap () in
      if resumed.Mc.Explorer.so_interrupt <> None then
        Alcotest.failf "resume at jobs=%d: run was interrupted" resume_jobs;
      if resumed.Mc.Explorer.so_sup <> full.Mc.Explorer.so_sup then
        Alcotest.failf
          "cut jobs=%d -> resume jobs=%d: sup %a <> uninterrupted %a"
          cut_jobs resume_jobs pp_sup resumed.Mc.Explorer.so_sup pp_sup
          full.Mc.Explorer.so_sup)
    [ (1, 4); (2, 1); (2, 4); (4, 4) ];
  (* a mismatched snapshot is still rejected on the parallel path: the
     fingerprint check runs before any state is restored *)
  let cut = query ~ctl:(budget_ctl ()) () in
  let snap = Option.get cut.Mc.Explorer.so_snapshot in
  match
    Mc.Query.max_delay ~jobs:2 ~resume:snap
      (Test_runctl.railroad_psm ()) ~trigger:"m_Train" ~response:"c_GateDown"
      ~ceiling:640
  with
  | _ -> Alcotest.fail "mismatched snapshot was accepted at jobs=2"
  | exception Invalid_argument _ -> ()

(* The visited counter is reserved by CAS against the budget: even with
   many workers racing into the limit at once it must never pass it —
   not even transiently, so the final count is exact. *)
let test_budget_never_overshoots () =
  for _ = 1 to 4 do
    let ctl =
      Mc.Runctl.create
        ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some 64 }
        ()
    in
    let r =
      Mc.Query.max_delay ~jobs:8 ~ctl (Test_runctl.railroad_psm ())
        ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320
    in
    (match r.Mc.Explorer.so_interrupt with
     | Some (Mc.Runctl.State_budget 64) -> ()
     | other ->
       Alcotest.failf "expected State_budget 64, got %a"
         Fmt.(option Mc.Runctl.pp_reason)
         other);
    let v = r.Mc.Explorer.so_stats.Mc.Explorer.visited in
    if v > 64 then
      Alcotest.failf "visited %d overshoots the 64-state budget" v
  done

(* Seeded random networks (test/gen.ml generators): safety verdicts and
   sup values agree across worker counts, including oversubscribed
   ones.  Verdict witnesses may legitimately differ, so only the
   three-valued shape is compared. *)
let test_random_networks_cross_jobs () =
  let rand = Random.State.make [| 0x5eed; 42 |] in
  let nets =
    List.init 12 (fun _ -> QCheck.Gen.generate1 ~rand Gen.gen_network)
  in
  let verdict_shape r =
    match r.Mc.Explorer.r_trace, r.Mc.Explorer.r_interrupt with
    | Some _, _ -> "refuted"
    | None, Some _ -> "unknown"
    | None, None -> "proved"
  in
  List.iteri
    (fun i net ->
      let safe jobs =
        let t = Mc.Explorer.make net in
        (* every generated automaton has locations L0..L{n-1}, n >= 2 *)
        let pred = Mc.Explorer.at t ~aut:"B" ~loc:"L1" in
        verdict_shape (Mc.Explorer.reachable ~jobs t pred)
      in
      let sup jobs =
        (Mc.Query.max_delay ~jobs net ~trigger:"bc" ~response:"bin"
           ~ceiling:16)
          .Mc.Explorer.so_sup
      in
      let v1 = safe 1 and s1 = sup 1 in
      List.iter
        (fun jobs ->
          let v = safe jobs in
          if v <> v1 then
            Alcotest.failf "net %d: jobs=%d verdict %s <> sequential %s" i
              jobs v v1;
          let s = sup jobs in
          if s <> s1 then
            Alcotest.failf "net %d: jobs=%d sup %a <> sequential %a" i jobs
              pp_sup s pp_sup s1)
        [ 2; 4; 8 ])
    nets

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

(* A predicate that raises mid-search must not kill the process or
   escape as an exception: the fleet winds down and the caller sees a
   diagnosed Unknown carrying the crash (never cached — see
   Store.Entry.reusable). *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let pp_reach ppf r =
  match r.Mc.Explorer.r_trace, r.Mc.Explorer.r_interrupt with
  | Some trace, _ -> Fmt.pf ppf "found (%d steps)" (List.length trace)
  | None, Some reason -> Fmt.pf ppf "unknown: %a" Mc.Runctl.pp_reason reason
  | None, None -> Fmt.string ppf "unreachable"

let test_crash_supervised () =
  let t = Mc.Explorer.make (Test_runctl.railroad_psm ()) in
  List.iter
    (fun jobs ->
      match
        Mc.Explorer.reachable ~jobs t (fun _ -> failwith "poisoned predicate")
      with
      | { Mc.Explorer.r_trace = None; r_interrupt = Some (Mc.Runctl.Crash diag); _ }
        ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: diagnosis names the exception" jobs)
          true
          (contains diag "poisoned predicate")
      | r ->
        Alcotest.failf "jobs=%d: expected a crash-diagnosed Unknown, got %a"
          jobs pp_reach r
      | exception exn ->
        Alcotest.failf "jobs=%d: crash escaped supervision: %s" jobs
          (Printexc.to_string exn))
    [ 2; 4 ]

(* A crash in the middle of the search, not on the seed: by then the
   other domains have work queued and batches in flight, and they must
   exit on the stop cell regardless — a domain waiting for [pending] to
   drain would hang this test (and the suite). *)
let test_midsearch_crash_quiesces () =
  List.iter
    (fun jobs ->
      let calls = Atomic.make 0 in
      let pred _ =
        if Atomic.fetch_and_add calls 1 = 100 then
          failwith "mid-search crash"
        else false
      in
      let t = Mc.Explorer.make (Test_runctl.railroad_psm ()) in
      match Mc.Explorer.reachable ~jobs t pred with
      | { Mc.Explorer.r_trace = None; r_interrupt = Some (Mc.Runctl.Crash diag); _ }
        ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: diagnosis names the exception" jobs)
          true
          (contains diag "mid-search crash")
      | r ->
        Alcotest.failf "jobs=%d: expected a crash-diagnosed Unknown, got %a"
          jobs pp_reach r
      | exception exn ->
        Alcotest.failf "jobs=%d: crash escaped supervision: %s" jobs
          (Printexc.to_string exn))
    [ 2; 4; 8 ]

(* Random railroad schemes: sequential and 4-domain sups agree. *)
let prop_random_scheme =
  QCheck.Test.make ~count:6 ~name:"random scheme: par sup = seq sup"
    QCheck.(triple (int_range 10 60) (int_range 1 8) (int_range 1 6))
    (fun (period, wcet_max, dmax) ->
      let net =
        let loc = Model.location and edge = Model.edge in
        let controller =
          Model.automaton ~name:"GateCtrl" ~initial:"Open"
            [ loc "Open";
              loc ~inv:[ Clockcons.le "g" 5 ] "Lowering";
              loc "Closed" ]
            [ edge ~sync:(Model.Recv "m_Train") ~resets:[ "g" ] "Open"
                "Lowering";
              edge ~sync:(Model.Send "c_GateDown") "Lowering" "Closed";
              edge ~sync:(Model.Recv "m_Clear") "Closed" "Open" ]
        in
        let track =
          Model.automaton ~name:"Track" ~initial:"Away"
            [ loc "Away";
              loc "Approaching";
              loc ~inv:[ Clockcons.le "t" 1_500 ] "Passing" ]
            [ edge
                ~guard:[ Clockcons.ge "t" 300 ]
                ~sync:(Model.Send "m_Train") ~resets:[ "t" ] "Away"
                "Approaching";
              edge ~sync:(Model.Recv "c_GateDown") ~resets:[ "t" ]
                "Approaching" "Passing";
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
        let pim =
          Transform.Pim.make net ~software:"GateCtrl" ~environment:"Track"
        in
        let scheme =
          { Scheme.is_name = "ecu";
            is_inputs =
              [ ("m_Train", Scheme.interrupt_input (Scheme.delay 1 dmax));
                ("m_Clear", Scheme.interrupt_input (Scheme.delay 1 dmax)) ];
            is_outputs =
              [ ("c_GateDown", Scheme.pulse_output (Scheme.delay 5 20)) ];
            is_input_comm = Scheme.Buffer (2, Scheme.Read_all);
            is_output_comm = Scheme.Buffer (2, Scheme.Read_all);
            is_invocation = Scheme.Periodic period;
            is_exec = { Scheme.wcet_min = 1; wcet_max } }
        in
        (Transform.psm_of_pim pim scheme).Transform.psm_net
      in
      let sup jobs =
        (Mc.Query.max_delay ~jobs net ~trigger:"m_Train"
           ~response:"c_GateDown" ~ceiling:400)
          .Mc.Explorer.so_sup
      in
      sup 1 = sup 4)

(* --- the one search loop at every jobs, on fuzz instances --------------- *)

(* What a naive sequential sup search reaches: a FIFO queue and, per
   discrete state, a plain list of live zones — a newcomer some live zone
   includes is dropped, otherwise it replaces every live zone it
   includes.  [Mc.Explorer.search] at [jobs = 1] must reproduce it
   exactly: sup, counters and, under a budget, the cut. *)
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

(* jobs = 1: sup, visited, stored and frontier equal the reference, and a
   cut at half the visited count is the reference's cut, byte for byte
   across runs.  jobs = 2 and 4: the same sup, the same bounded-response
   verdicts on both sides of the sup, and a jobs-2 cut resumes at jobs 1
   and 4 to that sup. *)
let prop_one_loop_every_jobs =
  QCheck.Test.make ~count:24
    ~name:"fuzz instances: one search loop at jobs 1/2/4"
    arb_fuzz_instance (fun ki ->
      let inst = fuzz_instance ki in
      let clock = "psv_delay_mon" and ceiling = inst.Diff.Gen.ceiling in
      let sup ?jobs ?ctl ?resume () =
        let t = fuzz_explorer inst in
        Mc.Explorer.sup_clock ?jobs ?ctl ?resume t
          ~pred:(Mc.Explorer.mon_in t "Waiting") ~clock
      in
      let budget n =
        Mc.Runctl.create
          ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some n } ()
      in
      let fail fmt =
        QCheck.Test.fail_reportf ("%s: " ^^ fmt) inst.Diff.Gen.id
      in
      let full = reference_sup (fuzz_explorer inst) ~clock ~ceiling in
      let s1 = sup ~jobs:1 () in
      let st = s1.Mc.Explorer.so_stats in
      if s1.Mc.Explorer.so_sup <> full.rr_sup then fail "jobs=1 sup differs";
      if (st.Mc.Explorer.visited, st.stored, st.frontier)
         <> (full.rr_visited, full.rr_stored, 0)
      then
        fail "jobs=1 visited/stored/frontier %d/%d/%d, reference %d/%d/0"
          st.visited st.stored st.frontier full.rr_visited full.rr_stored;
      let half = max 1 (full.rr_visited / 2) in
      let cut () = sup ~jobs:1 ~ctl:(budget half) () in
      let c1 = cut ()
      and rcut =
        reference_sup ~budget:half (fuzz_explorer inst) ~clock ~ceiling
      in
      (match c1.Mc.Explorer.so_snapshot with
       | None ->
         if full.rr_visited > half then
           fail "jobs=1 cut at %d: no snapshot" half
       | Some snap ->
         let entries =
           List.map
             (fun se ->
               Mc.Explorer.
                 (se.se_id, se.se_locs, se.se_vars, se.se_mon, se.se_zone))
             (Mc.Explorer.snapshot_entries snap)
         in
         if List.sort compare entries <> rcut.rr_live then
           fail "jobs=1 cut: entries differ";
         if Array.to_list (Mc.Explorer.snapshot_queue snap) <> rcut.rr_queue
         then fail "jobs=1 cut: queue differs";
         if Mc.Explorer.
              (snapshot_visited snap, snapshot_stored snap)
            <> (rcut.rr_visited, rcut.rr_stored)
         then fail "jobs=1 cut: counters differ";
         let again = Option.get (cut ()).Mc.Explorer.so_snapshot in
         if snapshot_bytes snap <> snapshot_bytes again then
           fail "jobs=1 cut: snapshot bytes differ between runs");
      let outcome jobs bound =
        (Mc.Query.eval ~jobs inst.Diff.Gen.net
           (Mc.Query.Bounded_response
              { trigger = inst.Diff.Gen.trigger;
                response = inst.Diff.Gen.response; bound }))
          .Mc.Query.res_outcome
      in
      let ub = Diff.Gen.ub inst and floor = inst.Diff.Gen.floor in
      List.iter
        (fun jobs ->
          let sj = sup ~jobs () in
          if sj.Mc.Explorer.so_sup <> full.rr_sup then
            fail "jobs=%d sup %a, jobs=1 %a" jobs pp_sup sj.Mc.Explorer.so_sup
              pp_sup full.rr_sup;
          List.iter
            (fun bound ->
              if outcome jobs bound <> outcome 1 bound then
                fail "jobs=%d: bounded within %d differs from jobs=1" jobs
                  bound)
            [ ub; floor - 1 ])
        [ 2; 4 ];
      (match (sup ~jobs:2 ~ctl:(budget half) ()).Mc.Explorer.so_snapshot with
       | None -> ()
       | Some snap ->
         List.iter
           (fun jobs ->
             let r = sup ~jobs ~resume:snap () in
             if r.Mc.Explorer.so_sup <> full.rr_sup then
               fail "jobs=2 cut resumed at jobs=%d: sup differs" jobs)
           [ 1; 4 ]);
      true)

(* Every partition's store is the [Explorer.Passed] node store: the zone
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

(* The helper domains of [Mc.Park] outlive a search.  Partition 1 of a
   jobs-2 search runs on a helper, and the helper goes back to the park
   before the search returns, so the next search gets the same one —
   unless the host has one core and nothing may stay parked. *)
let test_helper_reuse () =
  let t = Mc.Explorer.make (Test_runctl.railroad_psm ()) in
  let seen =
    List.init 20 (fun _ ->
        let dom = ref None in
        let visit p _ =
          if p = 1 then dom := Some (Domain.self () :> int);
          `Continue
        in
        ignore (Mc.Explorer.search ~jobs:2 t visit : Mc.Explorer.search_result);
        match !dom with
        | Some d -> d
        | None -> Alcotest.fail "partition 1 stored no state")
  in
  if Mc.Park.cap >= 1 then
    List.iteri
      (fun i d ->
        if d <> List.hd seen then
          Alcotest.failf "run %d: partition 1 ran on domain %d, run 0 on %d" i
            d (List.hd seen))
      seen

(* A search run by a pool worker forks its own helpers from a helper:
   the park spawns rather than waits, so the nest terminates. *)
let test_nested_pool_searches () =
  let run jobs (name, net, trigger, response, ceiling) =
    let r = Mc.Query.max_delay ~jobs (net ()) ~trigger ~response ~ceiling in
    if r.Mc.Explorer.so_interrupt <> None then
      Alcotest.failf "%s: jobs=%d run was interrupted" name jobs;
    r.Mc.Explorer.so_sup
  in
  let cases = sup_cases () in
  Alcotest.(check (list (testable pp_sup ( = ))))
    "nested jobs-2 sups = sequential"
    (List.map (run 1) cases)
    (Analysis.Pool.map ~jobs:2 (run 2) cases)

(* After a failed map item and a crashed search, the park still hands
   out working helpers. *)
let test_park_recovers () =
  let net = Test_runctl.railroad_psm () in
  let sup jobs =
    (Mc.Query.max_delay ~jobs net ~trigger:"m_Train" ~response:"c_GateDown"
       ~ceiling:320).Mc.Explorer.so_sup
  in
  let expected = sup 1 in
  let answers_again after =
    let s = sup 2 in
    if s <> expected then
      Alcotest.failf "after %s: jobs-2 sup %a <> sequential %a" after pp_sup s
        pp_sup expected;
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
  test_crash_supervised ();
  answers_again "a supervised crash"

(* More domains than the host runs leave at most [cap] helpers parked. *)
let test_park_cap () =
  let over = Mc.Explorer.recommended_jobs () + 2 in
  ignore
    (Mc.Explorer.reachable ~jobs:over
       (Mc.Explorer.make (Test_runctl.railroad_psm ()))
       (fun _ -> false)
      : Mc.Explorer.reach_result);
  Alcotest.(check int) "cap" (max 0 (Mc.Explorer.recommended_jobs () - 1))
    Mc.Park.cap;
  let parked = Mc.Park.parked () in
  if parked > Mc.Park.cap then
    Alcotest.failf "%d helpers parked after a jobs-%d search, cap %d" parked
      over Mc.Park.cap

let suite =
  [ Alcotest.test_case "sup determinism across jobs" `Quick
      test_sup_determinism;
    Alcotest.test_case "jobs=1 byte-identical to sequential" `Quick
      test_jobs1_byte_identical;
    Alcotest.test_case "verdict determinism across jobs" `Quick
      test_verdict_determinism;
    Alcotest.test_case "query eval across jobs" `Quick test_query_eval_jobs;
    Alcotest.test_case "pre-cancelled ctl" `Quick test_precancelled;
    Alcotest.test_case "budget partial sup is a lower bound" `Quick
      test_budget_partial_sup;
    Alcotest.test_case "parallel witness replays" `Quick
      test_timed_witness_feasible;
    Alcotest.test_case "checkpoint/resume across jobs" `Quick
      test_parallel_checkpoint_resume;
    Alcotest.test_case "state budget never overshoots" `Quick
      test_budget_never_overshoots;
    Alcotest.test_case "random networks agree across jobs" `Quick
      test_random_networks_cross_jobs;
    Alcotest.test_case "pool_map" `Quick test_pool_map;
    Alcotest.test_case "worker crash is supervised" `Quick
      test_crash_supervised;
    Alcotest.test_case "mid-search crash quiesces" `Quick
      test_midsearch_crash_quiesces;
    QCheck_alcotest.to_alcotest prop_random_scheme;
    QCheck_alcotest.to_alcotest prop_one_loop_every_jobs;
    QCheck_alcotest.to_alcotest prop_owner_store_matches_reference;
    Alcotest.test_case "helper domain reused across searches" `Quick
      test_helper_reuse;
    Alcotest.test_case "pool map over jobs-2 searches" `Quick
      test_nested_pool_searches;
    Alcotest.test_case "park recovers after failures" `Quick
      test_park_recovers;
    Alcotest.test_case "parked helpers capped" `Quick test_park_cap ]
