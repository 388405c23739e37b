(* psv reproduce: every evaluation artifact of the paper (Table I and
   the behavior shown in Figs. 1-6) plus the ablations of DESIGN.md, as
   printed rows and series.  The output is deterministic; dune runtest
   diffs it against test/reproduce.expected.

   Experiment ids follow DESIGN.md's per-experiment index:
     E1 Table I verified row          E5 Fig. 3 read-one vs read-all
     E2 Table I measured rows         E6 Fig. 4 PIM vs PSM behavior
     E3 REQ1 violation                E7 Fig. 5/6 constructed automata
     E4 Fig. 1 PIM verification       A1-A3 ablations
     R1 fault-injected simulations    S1 supplemental REQ2/REQ3 *)

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
      Fmt.(list ~sep:(any ", ") (fmt "%.0f"))
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
    "(aperiodic rows are analytic what-ifs: the transformation rejects \
     aperiodic invocation for the GPCA software, whose bolus preparation \
     waits on a clock)@."

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
  let run_profile faults =
    let delays = ref [] and lost = ref 0 in
    for i = 0 to scenarios - 1 do
      let request_time = 100.0 +. (37.0 *. float_of_int i) in
      let config = Gpca.Experiment.scenario_config params ~request_time in
      let log = Sim.Engine.run ~seed:(1 + i) ?faults config in
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
  let show label faults =
    let delays, lost = run_profile faults in
    match Sim.Measure.stats_of delays with
    | Some st ->
      Fmt.pr "%-28s | %7d | %4d | %9.1f | %.1f >= %.0f: %b@." label
        st.Sim.Measure.st_count lost st.Sim.Measure.st_max
        st.Sim.Measure.st_min floor_in
        (st.Sim.Measure.st_min >= floor_in)
    | None -> Fmt.pr "%-28s | %7d | %4d | %9s | (no samples)@." label 0 lost "-"
  in
  show "nominal" None;
  show "jitter 0.5" (Some (Sim.Engine.faults ~jitter:0.5 ()));
  show "jitter 2.0" (Some (Sim.Engine.faults ~jitter:2.0 ()));
  show "drop 0.2" (Some (Sim.Engine.faults ~drop:0.2 ()));
  show "dup 0.3" (Some (Sim.Engine.faults ~dup:0.3 ()));
  show "jitter 1.0 drop 0.1 dup 0.1"
    (Some (Sim.Engine.faults ~jitter:1.0 ~drop:0.1 ~dup:0.1 ()))

(* ------------------------------------------------------ supplemental -- *)

let supplemental_requirements () =
  header "Supplemental: REQ2 (alarm) and REQ3 (pause) on the full GPCA";
  Fmt.pr "%a@." Gpca.Experiment.pp_supplemental
    (Gpca.Experiment.supplemental params)

let run () =
  e4_pim_verification ();
  e123_table1 ();
  e5_read_policies ();
  e6_traces ();
  e7_constructions ();
  a1_period_sweep ();
  a2_buffer_sweep ();
  a3_scheme_matrix ();
  r1_fault_sweep ();
  supplemental_requirements ()
