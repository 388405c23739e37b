(* Benchmark and reproduction harness.

   Part 1 regenerates every evaluation artifact of the paper (Table I and
   the behavior shown in Figs. 1-6) plus the ablations of DESIGN.md,
   printing the rows/series; part 2 times the regeneration kernels with
   Bechamel (one Test.make per experiment).

   Experiment ids follow DESIGN.md's per-experiment index:
     E1 Table I verified row          E5 Fig. 3 read-one vs read-all
     E2 Table I measured rows         E6 Fig. 4 PIM vs PSM behavior
     E3 REQ1 violation                E7 Fig. 5/6 constructed automata
     E4 Fig. 1 PIM verification       A1-A3 ablations *)

open Ta

let params = Gpca.Params.default

let header title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* ---------------------------------------------------------------- E4 -- *)

let e4_pim_verification () =
  header "E4 (Fig. 1): the platform-independent model meets REQ1";
  let net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only params in
  let r =
    Mc.Query.max_delay net ~trigger:Gpca.Model.bolus_req
      ~response:Gpca.Model.start_infusion ~ceiling:1000
  in
  Fmt.pr "PIM max delay bolus-request -> infusion-start: %a@."
    Mc.Explorer.pp_sup_result r.Mc.Explorer.so_sup;
  Fmt.pr "PIM |= P(500): %a@." Mc.Query.pp_outcome
    (Psv.verify_response net ~trigger:Gpca.Model.bolus_req
       ~response:Gpca.Model.start_infusion ~bound:500)

(* ------------------------------------------------------------ E1-E3 -- *)

let e123_table1 () =
  header "E1+E2+E3 (Table I): verified bounds vs measured delays";
  let t = Gpca.Experiment.table1 ~seed:42 params in
  Fmt.pr "%a@." Gpca.Experiment.pp_table1 t;
  Fmt.pr
    "@.Paper's Table I for comparison:@.\
     \  Verified: M-C 1430 / Input 490 / Output 440, overflow not occurring@.\
     \  Measured: M-C 610/748/456, Input 97/152/48, Output 215/304/100@.\
     \  REQ1 violated in 53 of 60 scenarios@."

(* ---------------------------------------------------------------- E5 -- *)

(* A three-tick counter and a bursty environment reproduce Fig. 3's
   io-boundary semantics: under read-one an invocation consumes a single
   buffered input; under read-all it drains the buffer. *)
let e5_pim () =
  let loc = Model.location and edge = Model.edge in
  let soft =
    Model.automaton ~name:"Counter" ~initial:"S0"
      [ loc "S0"; loc "S1"; loc "S2"; loc "S3" ]
      [ edge ~sync:(Model.Recv "m_Tick") "S0" "S1";
        edge ~sync:(Model.Recv "m_Tick") "S1" "S2";
        edge ~sync:(Model.Recv "m_Tick") "S2" "S3" ]
  in
  let env =
    Model.automaton ~name:"Env" ~initial:"E0"
      [ loc "E0"; loc "E1" ]
      [ edge ~sync:(Model.Send "m_Tick") "E0" "E1" ]
  in
  let net =
    Model.network ~name:"fig3" ~clocks:[] ~vars:[]
      ~channels:[ ("m_Tick", Model.Broadcast) ]
      [ soft; env ]
  in
  Transform.Pim.make net ~software:"Counter" ~environment:"Env"

let e5_scheme policy =
  { Scheme.is_name = "fig3";
    is_inputs = [ ("m_Tick", Scheme.interrupt_input (Scheme.delay 1 2)) ];
    is_outputs = [];
    is_input_comm = Scheme.Buffer (5, policy);
    is_output_comm = Scheme.Buffer (5, policy);
    is_invocation = Scheme.Periodic 100;
    is_exec = { Scheme.wcet_min = 1; wcet_max = 10 } }

let e5_run policy =
  let typical =
    { Sim.Engine.typ_input_proc = (fun _ -> (1.5, 1.5));
      typ_output_proc = (fun _ -> (1.0, 1.0));
      typ_exec = (2.0, 2.0) }
  in
  let config =
    { Sim.Engine.cfg_pim = e5_pim ();
      cfg_scheme = e5_scheme policy;
      cfg_typical = typical;
      cfg_stimuli =
        [ (105.0, "m_Tick"); (130.0, "m_Tick"); (155.0, "m_Tick") ];
      cfg_horizon = 700.0 }
  in
  Sim.Engine.run ~seed:5 config

let e5_read_policies () =
  header "E5 (Fig. 3): read-one vs read-all at the io-boundary";
  let show label policy =
    let log = e5_run policy in
    let reads =
      List.filter_map
        (fun (e : Sim.Engine.entry) ->
          match e.Sim.Engine.event with
          | Sim.Engine.Input_read _ -> Some e.Sim.Engine.at
          | Sim.Engine.Env_signal _ | Sim.Engine.Input_inserted _
          | Sim.Engine.Input_discarded _ | Sim.Engine.Input_lost _
          | Sim.Engine.Code_output _ | Sim.Engine.Output_visible _
          | Sim.Engine.Output_lost _ -> None)
        log
    in
    Fmt.pr "%-10s inputs read at invocations: %a@." label
      Fmt.(list ~sep:comma (fmt "%.0f"))
      reads
  in
  Fmt.pr "three pulses at 105/130/155; invocations every 100@.";
  show "read-all" Scheme.Read_all;
  show "read-one" Scheme.Read_one;
  Fmt.pr "@.read-one timeline:@.%s%s@."
    (Sim.Timeline.render ~width:64 (e5_run Scheme.Read_one))
    Sim.Timeline.legend;
  Fmt.pr
    "(read-all drains the buffer at invocation 200; read-one consumes one \
     input per invocation, as in Fig. 3)@."

(* ---------------------------------------------------------------- E6 -- *)

let e6_traces () =
  header "E6 (Fig. 4): PIM vs PSM timed behavior of one bolus request";
  let show label net pump_aut =
    let t = Mc.Explorer.make net in
    let infusing = Mc.Explorer.at t ~aut:pump_aut ~loc:"Infusing" in
    match Mc.Explorer.timed_trace t infusing with
    | Ok (Some steps) ->
      Fmt.pr "@[<v 2>%s reaches Infusing in %d steps:@,%a@]@." label
        (List.length steps)
        Fmt.(list ~sep:cut Mc.Explorer.pp_timed_step)
        steps
    | Ok None -> Fmt.pr "%s: Infusing unreachable?!@." label
    | Error reason ->
      Fmt.pr "%s: search interrupted (%a)@." label Mc.Runctl.pp_reason reason
  in
  show "PIM" (Gpca.Model.network ~variant:Gpca.Model.Bolus_only params) "Pump";
  show "PSM"
    (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net
    "Pump_IO"

(* ---------------------------------------------------------------- E7 -- *)

let e7_constructions () =
  header "E7 (Figs. 5/6): the constructed IFMI / IFOC / EXEIO automata";
  let psm = Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params in
  let net = psm.Transform.psm_net in
  List.iter
    (fun name ->
      let a = Model.find_automaton net name in
      Fmt.pr "%s@.@."
        (Xta.Print.to_string @@ Model.network ~name:("fragment_" ^ name)
           ~clocks:net.Model.net_clocks ~vars:net.Model.net_vars
           ~channels:net.Model.net_channels [ a ]))
    [ "IFMI_BolusReq"; "IFOC_StartInfusion"; "EXEIO" ]

(* ---------------------------------------------------------------- A1 -- *)

let a1_period_sweep () =
  header "A1 (ablation): invocation period vs the two bounds";
  Fmt.pr "%8s | %13s | %13s@." "period" "analytic" "verified";
  List.iter
    (fun period ->
      let p =
        { params with
          Gpca.Params.period;
          exec = { Scheme.wcet_min = min 20 (period / 2); wcet_max = period } }
      in
      let analytic = (Gpca.Experiment.analytic_bounds p).Gpca.Experiment.a_mc in
      let psm = Gpca.Model.psm ~variant:Gpca.Model.Bolus_only p in
      let verified =
        (Mc.Query.max_delay ~limit:500_000 psm.Transform.psm_net
           ~trigger:Gpca.Model.bolus_req ~response:Gpca.Model.start_infusion
           ~ceiling:(3 * analytic))
          .Mc.Explorer.so_sup
      in
      Fmt.pr "%8d | %13d | %13s@." period analytic
        (Fmt.str "%a" Mc.Explorer.pp_sup_result verified))
    [ 50; 100; 200 ]

(* ---------------------------------------------------------------- A2 -- *)

let a2_buffer_sweep () =
  header "A2 (ablation): buffer capacity under a bursty environment";
  let loc = Model.location and edge = Model.edge in
  (* three pulses, 4 ms apart *)
  let soft =
    Model.automaton ~name:"Soft" ~initial:"S0"
      [ loc "S0"; loc "S1"; loc "S2"; loc "S3" ]
      [ edge ~sync:(Model.Recv "m_a") "S0" "S1";
        edge ~sync:(Model.Recv "m_a") "S1" "S2";
        edge ~sync:(Model.Recv "m_a") "S2" "S3" ]
  in
  let env =
    Model.automaton ~name:"Env" ~initial:"E0"
      [ loc ~inv:[ Clockcons.le "e" 0 ] "E0";
        loc ~inv:[ Clockcons.le "e" 4 ] "E1";
        loc ~inv:[ Clockcons.le "e" 4 ] "E2";
        loc "E3" ]
      [ edge ~sync:(Model.Send "m_a") ~resets:[ "e" ] "E0" "E1";
        edge ~guard:[ Clockcons.eq_ "e" 4 ] ~sync:(Model.Send "m_a")
          ~resets:[ "e" ] "E1" "E2";
        edge ~guard:[ Clockcons.eq_ "e" 4 ] ~sync:(Model.Send "m_a") "E2" "E3" ]
  in
  let net =
    Model.network ~name:"a2" ~clocks:[ "e" ] ~vars:[]
      ~channels:[ ("m_a", Model.Broadcast) ]
      [ soft; env ]
  in
  let pim = Transform.Pim.make net ~software:"Soft" ~environment:"Env" in
  Fmt.pr "%8s | %s@." "buffer" "constraint 2 (no input-buffer overflow)";
  List.iter
    (fun size ->
      let scheme =
        { Scheme.is_name = "a2";
          is_inputs = [ ("m_a", Scheme.interrupt_input (Scheme.delay 1 1)) ];
          is_outputs = [];
          is_input_comm = Scheme.Buffer (size, Scheme.Read_all);
          is_output_comm = Scheme.Buffer (size, Scheme.Read_all);
          is_invocation = Scheme.Periodic 50;
          is_exec = { Scheme.wcet_min = 1; wcet_max = 5 } }
      in
      let psm = Transform.psm_of_pim pim scheme in
      let results = Analysis.Constraints.check_all psm in
      let c2 =
        List.find
          (fun (r : Analysis.Constraints.result) ->
            r.Analysis.Constraints.c_id = 2)
          results
      in
      let status =
        match c2.Analysis.Constraints.c_status with
        | Analysis.Constraints.Satisfied -> "satisfied"
        | Analysis.Constraints.Violated _ -> "VIOLATED"
        | Analysis.Constraints.Unknown reason -> "unknown: " ^ reason
      in
      Fmt.pr "%8d | %s@." size status)
    [ 1; 2; 3; 4 ]

(* ---------------------------------------------------------------- A3 -- *)

let a3_scheme_matrix () =
  header "A3 (ablation): mechanism choices vs analytic bounds";
  let scheme = Gpca.Params.scheme params in
  let describe label s =
    let input = Analysis.Bounds.input_delay s Gpca.Model.bolus_req in
    let output = Analysis.Bounds.output_delay s Gpca.Model.start_infusion in
    Fmt.pr "%-36s | input <= %4d | output <= %4d | Delta'mc <= %4d@." label
      input output
      (input + output + params.Gpca.Params.prep_max)
  in
  describe "periodic(100), buffer(5) read-all" scheme;
  describe "periodic(100), buffer(5) read-one"
    { scheme with Scheme.is_input_comm = Scheme.Buffer (5, Scheme.Read_one) };
  describe "periodic(100), shared variable"
    { scheme with Scheme.is_input_comm = Scheme.Shared_variable };
  describe "aperiodic(0), buffer(5) read-all"
    { scheme with Scheme.is_invocation = Scheme.Aperiodic 0 };
  describe "aperiodic(10), buffer(5) read-all"
    { scheme with Scheme.is_invocation = Scheme.Aperiodic 10 };
  Fmt.pr
    "(aperiodic rows are analytic what-ifs: the transformation rejects      aperiodic invocation for the GPCA software, whose bolus preparation      waits on a clock)@."

(* ---------------------------------------------------------------- R1 -- *)

(* Robustness workload: the Table-I scenario under increasingly degraded
   platforms.  Faults stretch device delays and drop/duplicate
   mc-boundary samples, so measured delays may grow and samples may
   vanish — but no profile can push a measured Input-Delay below the
   scheme's analytic lower bound (Bounds.input_delay_min), since jitter
   never shortens a delay.  The last column checks exactly that. *)

let r1_fault_sweep () =
  header "R1 (robustness): fault-injected simulations vs analytic bounds";
  let scheme = Gpca.Params.scheme params in
  let floor_in =
    float_of_int (Analysis.Bounds.input_delay_min scheme Gpca.Model.bolus_req)
  in
  let scenarios = 20 in
  (* the fault seed varies per scenario: a single-stimulus scenario only
     draws once from the fault stream, so a fixed seed would make every
     scenario take the same drop/dup decision *)
  let run_profile mk_faults =
    let delays = ref [] and lost = ref 0 in
    for i = 0 to scenarios - 1 do
      let request_time = 100.0 +. (37.0 *. float_of_int i) in
      let config = Gpca.Experiment.scenario_config params ~request_time in
      let log = Sim.Engine.run ~seed:(1 + i) ?faults:(mk_faults i) config in
      lost :=
        !lost
        + Sim.Measure.count log (function
            | Sim.Engine.Input_lost _ -> true
            | _ -> false);
      List.iter
        (fun s ->
          match Sim.Measure.input_delay s with
          | Some d -> delays := d :: !delays
          | None -> ())
        (Sim.Measure.samples log ~trigger:Gpca.Model.bolus_req
           ~response:Gpca.Model.start_infusion)
    done;
    (!delays, !lost)
  in
  Fmt.pr "%-28s | %7s | %4s | %9s | %s@." "profile" "samples" "lost"
    "input-max" "min >= analytic min?";
  let show label mk_faults =
    let delays, lost = run_profile mk_faults in
    match Sim.Measure.stats_of delays with
    | Some st ->
      Fmt.pr "%-28s | %7d | %4d | %9.1f | %.1f >= %.0f: %b@." label
        st.Sim.Measure.st_count lost st.Sim.Measure.st_max
        st.Sim.Measure.st_min floor_in
        (st.Sim.Measure.st_min >= floor_in)
    | None -> Fmt.pr "%-28s | %7d | %4d | %9s | (no samples)@." label 0 lost "-"
  in
  show "nominal" (fun _ -> None);
  show "jitter 0.5" (fun i -> Some (Sim.Engine.faults ~seed:i ~jitter:0.5 ()));
  show "jitter 2.0" (fun i -> Some (Sim.Engine.faults ~seed:i ~jitter:2.0 ()));
  show "drop 0.2" (fun i -> Some (Sim.Engine.faults ~seed:i ~drop:0.2 ()));
  show "dup 0.3" (fun i -> Some (Sim.Engine.faults ~seed:i ~dup:0.3 ()));
  show "jitter 1.0 drop 0.1 dup 0.1" (fun i ->
      Some (Sim.Engine.faults ~seed:i ~jitter:1.0 ~drop:0.1 ~dup:0.1 ()))

(* ------------------------------------------------------ supplemental -- *)

let supplemental_requirements () =
  header "Supplemental: REQ2 (alarm) and REQ3 (pause) on the full GPCA";
  let verify_psm = Sys.getenv_opt "PSV_BENCH_FULL" <> None in
  if not verify_psm then
    Fmt.pr
      "(set PSV_BENCH_FULL=1 to also model-check the full-variant PSM;        ~2-4 minutes)@.";
  let s = Gpca.Experiment.supplemental ~verify_psm params in
  Fmt.pr "%a@." Gpca.Experiment.pp_supplemental s

(* ------------------------------------------------- explorer bench -- *)

(* Fixed explorer workload used to track zone-explorer performance over
   time: the Table-I verified-bound queries on the infusion-pump models
   plus the railroad gate-controller PSMs from examples/railroad.ml
   (reconstructed here; examples are not a library).  [--json] runs only
   this suite and emits one record per query with visited/stored state
   counts and wall time, the format recorded in BENCH_explorer.json. *)

let railroad_net ~headway =
  let loc = Model.location and edge = Model.edge in
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
  Model.network ~name:"railroad" ~clocks:[ "g"; "t" ] ~vars:[]
    ~channels:
      [ ("m_Train", Model.Broadcast);
        ("m_Clear", Model.Broadcast);
        ("c_GateDown", Model.Broadcast) ]
    [ controller; track ]

let railroad_psm ~headway ~invocation =
  let pim =
    Transform.Pim.make (railroad_net ~headway) ~software:"GateCtrl"
      ~environment:"Track"
  in
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

(* One sup query of the suite: a name for reporting, a thunk building
   its network, and the boundary pair with its ceiling.  The cache rows
   below route the identical query through {!Analysis.Qcache} as its
   {!spec_query}. *)
type spec = {
  qs_name : string;
  qs_net : unit -> Model.network;
  qs_trigger : string;
  qs_response : string;
  qs_ceiling : int;
}

let spec name net ~trigger ~response ~ceiling =
  { qs_name = name; qs_net = net; qs_trigger = trigger;
    qs_response = response; qs_ceiling = ceiling }

let spec_query q =
  Mc.Query.Sup_delay
    { trigger = q.qs_trigger; response = q.qs_response; ceiling = q.qs_ceiling }

(* The Table-I PIM bound and the three PSM boundary delays, then the
   railroad PSMs. *)
let explorer_queries () =
  let gpca_psm =
    lazy (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net
  in
  let gpca_ceiling = 2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc in
  [ spec "gpca-pim-mc"
      (fun () -> Gpca.Model.network ~variant:Gpca.Model.Bolus_only params)
      ~trigger:Gpca.Model.bolus_req ~response:Gpca.Model.start_infusion
      ~ceiling:1000;
    spec "gpca-psm-input"
      (fun () -> Lazy.force gpca_psm)
      ~trigger:Gpca.Model.bolus_req
      ~response:(Transform.Names.input_chan Gpca.Model.bolus_req)
      ~ceiling:gpca_ceiling;
    spec "gpca-psm-output"
      (fun () -> Lazy.force gpca_psm)
      ~trigger:(Transform.Names.output_chan Gpca.Model.start_infusion)
      ~response:Gpca.Model.start_infusion ~ceiling:gpca_ceiling;
    spec "gpca-psm-mc"
      (fun () -> Lazy.force gpca_psm)
      ~trigger:Gpca.Model.bolus_req ~response:Gpca.Model.start_infusion
      ~ceiling:gpca_ceiling;
    spec "railroad-psm-event"
      (fun () -> railroad_psm ~headway:300 ~invocation:(Scheme.Aperiodic 0))
      ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320;
    spec "railroad-psm-periodic25"
      (fun () -> railroad_psm ~headway:300 ~invocation:(Scheme.Periodic 25))
      ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320;
    spec "railroad-psm-race"
      (fun () -> railroad_psm ~headway:0 ~invocation:(Scheme.Aperiodic 0))
      ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320 ]

let run_spec q =
  Mc.Query.max_delay (q.qs_net ()) ~trigger:q.qs_trigger
    ~response:q.qs_response ~ceiling:q.qs_ceiling

let json_string s = Store.Json.to_string (Store.Json.String s)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [repeat] timed runs of one query: the result of the first run plus
   median and min wall time, and the allocation of the first run, in MB
   and in minor-heap words (allocation is deterministic per run
   shape). *)
let timed_runs ~repeat q =
  let results =
    List.init repeat (fun _ ->
        let a0 = Gc.allocated_bytes () and w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r = run_spec q in
        let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
        let alloc_mb = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
        (r, wall_ms, (alloc_mb, Gc.minor_words () -. w0)))
  in
  let walls = List.map (fun (_, w, _) -> w) results in
  let r, _, alloc = List.hd results in
  (r, median walls, List.fold_left min infinity walls, alloc)

(* Cold-vs-warm timing of one query through the persistent store: the
   entry is evicted first, so the first governed run pays the search and
   the insert, the second answers purely from disk. *)
let cache_runs cache q =
  let key = Analysis.Qcache.key (q.qs_net ()) (spec_query q) in
  Store.Disk.remove (Analysis.Qcache.disk cache) key;
  let timed () =
    let t0 = Unix.gettimeofday () in
    let r = Analysis.Qcache.eval cache (q.qs_net ()) (spec_query q) in
    (r.Mc.Query.res_outcome, 1000.0 *. (Unix.gettimeofday () -. t0))
  in
  let cold_r, cold_ms = timed () in
  let warm_r, warm_ms = timed () in
  if warm_r <> cold_r then begin
    Printf.eprintf "bench: %s: warm cache sup disagrees with cold run\n"
      q.qs_name;
    exit 1
  end;
  (cold_r, cold_ms, warm_ms)

let explorer_bench_json ?path ?cache_dir ?faults ?(repeat = 1) () =
  (* The output file is opened before the first query runs, so an
     unwritable path fails in a moment, not after the whole suite. *)
  let out =
    Option.map
      (fun p ->
        try (p, open_out p)
        with Sys_error msg -> prerr_endline ("bench: --json: " ^ msg); exit 3)
      path
  in
  let cache =
    Option.map
      (fun dir ->
        match Store.Disk.open_ dir with
        | Ok disk -> Analysis.Qcache.make disk
        | Error msg -> prerr_endline ("bench: --cache: " ^ msg); exit 3)
      cache_dir
  in
  (* The fault column reruns the cache cold/warm pair against a second
     store whose host I/O replays the given seeded schedule — same
     queries, same budgets, sick disk.  The sup must not move. *)
  let fault_cache =
    match (faults, cache_dir) with
    | None, _ -> None
    | Some _, None ->
      prerr_endline "bench: --faults needs --cache";
      exit 3
    | Some profile, Some dir ->
      (* Lay the store out fault-free, then reopen it on the sick io so
         the schedule only strikes the per-query read/write path. *)
      let fdir = dir ^ "-faulted" in
      (match Store.Disk.open_ fdir with
       | Ok _ -> ()
       | Error msg ->
         prerr_endline ("bench: --faults store: " ^ msg);
         exit 3);
      let stats = Fault.Io.stats () in
      let io = Fault.Io.inject ~stats profile Fault.Io.real in
      let retry = Fault.Retry.with_attempts 6 in
      (match Store.Disk.open_ ~io ~retry fdir with
       | Ok disk -> Some (Analysis.Qcache.make ~warn:(fun _ -> ()) disk, stats)
       | Error msg ->
         prerr_endline ("bench: --faults store: " ^ msg);
         exit 3)
  in
  let rows =
    List.map
      (fun q ->
        let r, wall_ms, wall_min, (alloc_mb, minor_words) =
          timed_runs ~repeat q
        in
        let stats = r.Mc.Explorer.so_stats in
        let cache_cells =
          match cache with
          | None -> ""
          | Some cache ->
            let _, cold_ms, warm_ms = cache_runs cache q in
            Printf.sprintf
              ", \"cache_cold_ms\": %.1f, \"cache_warm_ms\": %.1f, \
               \"cache_speedup\": %.1f"
              cold_ms warm_ms (cold_ms /. warm_ms)
        in
        let fault_cells =
          match fault_cache with
          | None -> ""
          | Some (fcache, fstats) ->
            let before = Atomic.get fstats.Fault.Io.fs_faults in
            let fr, fcold_ms, fwarm_ms = cache_runs fcache q in
            if fr <> Mc.Query.Sup r.Mc.Explorer.so_sup then begin
              Printf.eprintf
                "bench: %s: sup under fault injection disagrees with the \
                 clean run\n"
                q.qs_name;
              exit 1
            end;
            Printf.sprintf
              ", \"fault_cold_ms\": %.1f, \"fault_warm_ms\": %.1f, \
               \"fault_injected\": %d"
              fcold_ms fwarm_ms
              (Atomic.get fstats.Fault.Io.fs_faults - before)
        in
        Printf.sprintf
          "    {\"name\": %s, \"visited\": %d, \"stored\": %d, \
           \"wall_ms\": %.1f, \"wall_ms_min\": %.1f, \"repeat\": %d, \
           \"alloc_mb\": %.1f, \"minor_words\": %.0f, \"result\": %s%s}"
          (json_string q.qs_name) stats.Mc.Explorer.visited
          stats.Mc.Explorer.stored wall_ms wall_min repeat alloc_mb minor_words
          (json_string
             (Fmt.str "%a" Mc.Explorer.pp_sup_result r.Mc.Explorer.so_sup))
          (cache_cells ^ fault_cells))
      (explorer_queries ())
  in
  let faults_field =
    match faults with
    | None -> ""
    | Some p ->
      Printf.sprintf "  \"faults\": %s,\n"
        (json_string (Fault.Profile.to_string p))
  in
  let body =
    Printf.sprintf
      "{\n  \"suite\": \"explorer\",\n%s  \"queries\": [\n%s\n  ]\n}\n"
      faults_field
      (String.concat ",\n" rows)
  in
  (match out with
   | None -> print_string body
   | Some (p, oc) ->
     output_string oc body;
     close_out oc;
     Printf.printf "wrote %s\n" p)

(* ----------------------------------------------------- bechamel part -- *)

(* Zones for the DBM kernel rows: every 8th successor of the gpca-psm-mc
   search (dim 9: eight clocks and the reference), as [fire_pre] recorded
   it just before extrapolation, together with the search's ExtraM
   constants.  Also the search's offers to its passed list, in order: the
   initial state, then every non-empty successor, as (node, zone) with
   the node an index into the returned discrete states. *)
let gpca_mc_zones psm =
  let ceiling =
    2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc
  in
  let monitor =
    Mc.Monitor.delay ~trigger:Gpca.Model.bolus_req
      ~response:Gpca.Model.start_infusion ~clock:Mc.Query.delay_monitor_clock
      ~ceiling ()
  in
  let t = Mc.Explorer.make ~monitor psm in
  let k = (Mc.Explorer.compiled t).Compiled.c_max_consts in
  let dim = Array.length k in
  let fired = ref 0 and zones = ref [] in
  let nodes = Hashtbl.create 64 and offers = ref [] in
  let offer (st : Mc.Explorer.state) =
    let key = (st.st_locs, st.st_vars, st.st_mon) in
    let node =
      match Hashtbl.find_opt nodes key with
      | Some i -> i
      | None ->
        let i = Hashtbl.length nodes in
        Hashtbl.replace nodes key i;
        i
    in
    offers := (node, Zone.Dbm.copy st.st_zone) :: !offers
  in
  offer (Mc.Explorer.initial_state t);
  let expand pool st =
    List.map
      (fun cd ->
        incr fired;
        (if !fired mod 8 = 0 then
           match Mc.Explorer.fire_pre t pool st cd with
           | Mc.Explorer.Fired_live { fl_state; fl_pre; _ } ->
             Option.iter
               (fun (s : Mc.Explorer.state) ->
                 Zone.Dbm.Pool.release pool s.st_zone)
               fl_state;
             zones := Zone.Dbm.of_ints ~dim fl_pre :: !zones
           | Mc.Explorer.Fired_dead -> ());
        let succ = Mc.Explorer.fire t pool st cd in
        Option.iter offer succ;
        (cd, succ))
      (Mc.Explorer.candidates t st)
  in
  ignore
    (Mc.Explorer.sup_clock ~expand t
       ~pred:(Mc.Explorer.mon_in t "Waiting")
       ~clock:Mc.Query.delay_monitor_clock);
  let discrete = Array.make (Hashtbl.length nodes) ([||], [||], 0) in
  Hashtbl.iter (fun key i -> discrete.(i) <- key) nodes;
  (Array.of_list (List.rev !zones), k, Array.of_list (List.rev !offers),
   discrete)

(* The recorded offers replayed, in order, into a fresh passed list:
   one run is one whole replay, each zone through a pool copy as [fire]
   would have made it.  [expanding] is -1 throughout: the replay never
   reads a parent's zone again, so a subsumed parent may go back to the
   pool.  The search's ExtraM constants [k] size the keys' lanes, as in
   the search. *)
let passed_replay k offers discrete =
  let module P = Mc.Explorer.Passed in
  let dim = Zone.Dbm.dim (snd offers.(0)) in
  let pool = Zone.Dbm.Pool.create dim in
  let state (locs, vars, mon) zone =
    { Mc.Explorer.st_locs = locs; st_vars = vars; st_mon = mon;
      st_zone = zone }
  in
  fun () ->
    let p = P.create ~max_const:(Array.fold_left max 0 k) pool in
    let nodes =
      Array.mapi
        (fun h d -> P.node ~hash:h (state d (Zone.Dbm.zero dim)))
        discrete
    in
    let id = ref 0 in
    Array.iter
      (fun (node, z) ->
        let st = state discrete.(node) (Zone.Dbm.Pool.copy pool z) in
        match P.add p nodes.(node) ~expanding:(-1) ~id:!id st with
        | Some _ -> incr id
        | None -> ())
      offers

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let bolus_psm =
    lazy (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params)
  in
  let zones, k, offers, discrete =
    gpca_mc_zones (Lazy.force bolus_psm).Transform.psm_net
  in
  let mib =
    String.init (1 lsl 20) (fun i -> Char.chr ((i * 131 + i / 7) land 0xff))
  in
  (* Each run takes the next sampled zone through a pool, so the kernel
     timings include a dim^2 copy.  A search's pooled matrices are
     long-lived, so they sit in the major heap; the pool's one matrix is
     promoted there first, so the copy costs what it costs in a search. *)
  let on_zones kernel =
    let pool = Zone.Dbm.Pool.create (Array.length k) and next = ref 0 in
    Zone.Dbm.Pool.release pool (Zone.Dbm.copy zones.(0));
    Gc.full_major ();
    Staged.stage (fun () ->
        let r = !next in
        next := (r + 1) mod Array.length zones;
        let z = Zone.Dbm.Pool.copy pool zones.(r) in
        kernel r z;
        Zone.Dbm.Pool.release pool z)
  in
  let tests =
    [ Test.make ~name:"E1:verified-input-bound"
        (Staged.stage (fun () ->
             let psm = Lazy.force bolus_psm in
             Mc.Query.max_delay psm.Transform.psm_net
               ~trigger:Gpca.Model.bolus_req
               ~response:(Transform.Names.input_chan Gpca.Model.bolus_req)
               ~ceiling:2000));
      Test.make ~name:"E2:one-scenario-sim"
        (Staged.stage (fun () ->
             let config =
               Gpca.Experiment.scenario_config params ~request_time:123.0
             in
             Sim.Engine.run ~seed:9 config));
      Test.make ~name:"E3:req1-check-pim"
        (Staged.stage (fun () ->
             Psv.verify_response
               (Gpca.Model.network ~variant:Gpca.Model.Bolus_only params)
               ~trigger:Gpca.Model.bolus_req
               ~response:Gpca.Model.start_infusion ~bound:500));
      Test.make ~name:"E5:read-policy-sim"
        (Staged.stage (fun () -> e5_run Scheme.Read_one));
      Test.make ~name:"E6:witness-trace"
        (Staged.stage (fun () ->
             let net =
               Gpca.Model.network ~variant:Gpca.Model.Bolus_only params
             in
             let t = Mc.Explorer.make net in
             Mc.Explorer.reachable t
               (Mc.Explorer.at t ~aut:"Pump" ~loc:"Infusing")));
      Test.make ~name:"E7:pim-to-psm-transform"
        (Staged.stage (fun () ->
             Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params));
      Test.make ~name:"A1:analytic-bounds"
        (Staged.stage (fun () -> Gpca.Experiment.analytic_bounds params));
      Test.make ~name:"E7b:codegen-c"
        (Staged.stage (fun () ->
             let pim = Gpca.Model.pim ~variant:Gpca.Model.Bolus_only params in
             (Codegen.emit_header pim, Codegen.emit_source pim)));
      Test.make ~name:"infra:query-parse"
        (Staged.stage (fun () ->
             Mc.Query.parse
               "bounded: m_BolusReq -> c_StartInfusion within 500"));
      Test.make ~name:"infra:dbm-ops"
        (Staged.stage (fun () ->
             let z = Zone.Dbm.zero 10 in
             Zone.Dbm.up z;
             for i = 1 to 9 do
               Zone.Dbm.constrain z i 0 (Zone.Bound.le (10 * i))
             done;
             Zone.Dbm.reset z 3;
             Zone.Dbm.extrapolate z
               [| 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 |]));
      Test.make ~name:"infra:dbm-pool-copy" (on_zones (fun _ _ -> ()));
      (* reported per offer, below *)
      Test.make ~name:"infra:passed-add-gpca-mc"
        (Staged.stage (passed_replay k offers discrete));
      Test.make ~name:"infra:dbm-extrapolate-gpca-mc"
        (on_zones (fun _ z -> Zone.Dbm.extrapolate z k));
      (* A tightening constraint per zone: clock [1 + r mod 8]'s upper
         bound pulled down to one above its lower bound. *)
      Test.make ~name:"infra:dbm-constrain-gpca-mc"
        (on_zones (fun r z ->
             let i = 1 + (r mod (Array.length k - 1)) in
             let lo, _ = Zone.Dbm.inf_clock z i in
             Zone.Dbm.constrain z i 0 (Zone.Bound.le (lo + 1))));
      Test.make ~name:"infra:xta-roundtrip"
        (Staged.stage (fun () ->
             let psm = Lazy.force bolus_psm in
             let text = Xta.Print.to_string psm.Transform.psm_net in
             Xta.Parse.network text));
      Test.make ~name:"infra:d128-1mib"
        (Staged.stage (fun () -> Store.D128.of_string mib)) ]
  in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"psv" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  header "Bechamel timings (per-run estimates)";
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ t ] when name = "psv/infra:passed-add-gpca-mc" ->
        Fmt.pr "%-36s %14.0f ns/offer (%d offers)@." name
          (t /. float (Array.length offers))
          (Array.length offers)
      | Some [ t ] -> Fmt.pr "%-36s %14.0f ns/run@." name t
      | Some _ | None -> Fmt.pr "%-36s (no estimate)@." name)
    rows

let () =
  match Array.to_list Sys.argv with
  | _ :: "--json" :: rest ->
    let bad fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 3) fmt in
    let int_arg flag s =
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | Some _ | None -> bad "bench: bad %s %S" flag s
    in
    let path = ref None and repeat = ref 1 in
    let cache_dir = ref None and faults = ref None in
    let rec parse = function
      | [] -> ()
      | "--repeat" :: r :: rest ->
        repeat := int_arg "--repeat" r;
        parse rest
      | "--cache" :: dir :: rest ->
        cache_dir := Some dir;
        parse rest
      | "--faults" :: spec :: rest -> (
        match Fault.Profile.parse spec with
        | Ok p -> faults := Some p; parse rest
        | Error msg -> bad "bench: %s" msg)
      | [ ("--repeat" | "--cache" | "--faults") as flag ] ->
        bad "bench: %s needs a value" flag
      | flag :: _ when String.length flag > 1 && flag.[0] = '-' ->
        bad "bench: unknown option %s" flag
      | p :: rest -> (
        match !path with
        | None -> path := Some p; parse rest
        | Some first ->
          bad "bench: unexpected argument %s (output path already %s)" p first)
    in
    parse rest;
    explorer_bench_json ?path:!path ?cache_dir:!cache_dir ?faults:!faults
      ~repeat:!repeat ()
  | _ ->
  e4_pim_verification ();
  e123_table1 ();
  e5_read_policies ();
  e6_traces ();
  e7_constructions ();
  a1_period_sweep ();
  a2_buffer_sweep ();
  a3_scheme_matrix ();
  r1_fault_sweep ();
  supplemental_requirements ();
  bechamel_suite ()
