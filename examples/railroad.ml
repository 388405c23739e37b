(* An event-driven railroad crossing: the second full case study.

   A track-side sensor fires a pulse when a train approaches; the gate
   controller must command the gate down within 80 ms (the gate hardware
   then takes care of the physical motion).  The ECU is event-driven:
   the code runs only when an input arrives (aperiodic invocation) —
   which is exactly the scheme that makes the io-boundary wait vanish
   from the Input-Delay bound, at the price of requiring
   immediate-response software (the transformation enforces this).

   The example verifies the requirement on the PIM, re-verifies on two
   PSMs (event-driven vs a 25 ms periodic loop), checks the boundedness
   constraints, and cross-validates with simulated approaches.

   Run with: dune exec examples/railroad.exe *)

open Ta

let loc = Model.location
let edge = Model.edge

let requirement_bound = 80

(* The controller reacts in the very invocation that delivers the sensor
   pulse; lowering commands are recomputed per approach. *)
let controller =
  Model.automaton ~name:"GateCtrl" ~initial:"Open"
    [ loc "Open";
      loc ~inv:[ Clockcons.le "g" 5 ] "Lowering";
      loc "Closed" ]
    [ edge ~sync:(Model.Recv "m_Train") ~resets:[ "g" ] "Open" "Lowering";
      edge ~sync:(Model.Send "c_GateDown") "Lowering" "Closed";
      edge ~sync:(Model.Recv "m_Clear") "Closed" "Open" ]

(* Trains approach, pass, and clear.  [headway] is the minimum time
   between a train clearing the crossing and the next approach; the
   environment observes the gate command. *)
let track ~headway =
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

let net ~headway =
  Model.network ~name:"railroad" ~clocks:[ "g"; "t" ] ~vars:[]
    ~channels:
      [ ("m_Train", Model.Broadcast);
        ("m_Clear", Model.Broadcast);
        ("c_GateDown", Model.Broadcast) ]
    [ controller; track ~headway ]

let pim_of ~headway =
  Transform.Pim.make (net ~headway) ~software:"GateCtrl" ~environment:"Track"

let pim = pim_of ~headway:300

let scheme ~invocation =
  { Scheme.is_name = "ecu";
    is_inputs =
      [ ("m_Train", Scheme.interrupt_input (Scheme.delay 1 4));
        ("m_Clear", Scheme.interrupt_input (Scheme.delay 1 4)) ];
    is_outputs = [ ("c_GateDown", Scheme.pulse_output (Scheme.delay 5 20)) ];
    is_input_comm = Scheme.Buffer (2, Scheme.Read_all);
    is_output_comm = Scheme.Buffer (2, Scheme.Read_all);
    is_invocation = invocation;
    is_exec = { Scheme.wcet_min = 1; wcet_max = 8 } }

let verify_psm label invocation =
  let s = scheme ~invocation in
  let psm = Transform.psm_of_pim pim s in
  let ok =
    Psv.verify_response psm.Transform.psm_net ~trigger:"m_Train"
      ~response:"c_GateDown" ~bound:requirement_bound
  in
  let bound =
    (Psv.max_delay psm.Transform.psm_net ~trigger:"m_Train"
       ~response:"c_GateDown" ~ceiling:(4 * requirement_bound))
      .Mc.Explorer.so_sup
  in
  let analytic =
    Analysis.Bounds.relaxed_mc_delay s ~input:"m_Train" ~output:"c_GateDown"
      ~internal:5
  in
  Fmt.pr "%-24s P(%d): %-9s verified sup %-8s analytic %d@." label
    requirement_bound
    (match ok with
     | Mc.Query.Holds | Mc.Query.Sup _ -> "holds"
     | Mc.Query.Fails _ -> "VIOLATED"
     | Mc.Query.Unknown _ -> "unknown")
    (Fmt.str "%a" Mc.Explorer.pp_sup_result bound)
    analytic;
  let constraints = Analysis.Constraints.check_all psm in
  if not (Analysis.Constraints.all_satisfied constraints) then
    List.iter (Fmt.pr "  %a@." Analysis.Constraints.pp_result) constraints

let simulate_approaches () =
  let s = scheme ~invocation:(Scheme.Aperiodic 0) in
  let typical =
    { Sim.Engine.typ_input_proc = (fun _ -> (1.0, 4.0));
      typ_output_proc = (fun _ -> (5.0, 20.0));
      typ_exec = (1.0, 8.0) }
  in
  let rng = Sim.Rng.create 17 in
  let delays =
    List.init 20 (fun i ->
        let at = Sim.Rng.float_range rng 0.0 50.0 in
        let config =
          { Sim.Engine.cfg_pim = pim;
            cfg_scheme = s;
            cfg_typical = typical;
            cfg_stimuli = [ (at, "m_Train") ];
            cfg_horizon = at +. 500.0 }
        in
        let log = Sim.Engine.run ~seed:(100 + i) config in
        match
          Sim.Measure.samples log ~trigger:"m_Train" ~response:"c_GateDown"
        with
        | [ sample ] -> Sim.Measure.mc_delay sample
        | _ -> None)
  in
  match Sim.Measure.stats_of (List.filter_map Fun.id delays) with
  | Some stats ->
    Fmt.pr "@.20 simulated approaches (event-driven ECU): %a@."
      Sim.Measure.pp_stats stats
  | None -> Fmt.pr "no complete approaches?!@."

let show_one_timeline () =
  let s = scheme ~invocation:(Scheme.Aperiodic 0) in
  let typical =
    { Sim.Engine.typ_input_proc = (fun _ -> (2.0, 2.0));
      typ_output_proc = (fun _ -> (10.0, 10.0));
      typ_exec = (3.0, 3.0) }
  in
  let config =
    { Sim.Engine.cfg_pim = pim;
      cfg_scheme = s;
      cfg_typical = typical;
      cfg_stimuli = [ (12.0, "m_Train") ];
      cfg_horizon = 80.0 }
  in
  let log = Sim.Engine.run ~seed:3 config in
  Fmt.pr "@.one approach, fixed delays:@.%s%s@." (Sim.Timeline.render ~width:64 log)
    Sim.Timeline.legend

(* With no headway between a clearing train and the next approach, the
   PIM is fine (mc-boundary synchronisation is atomic), but the platform
   introduces a race: both m_Clear and the next m_Train can sit in the
   io-buffers together, the executive delivers i_Train first, the
   controller is still Closed and discards it - and the gate never
   lowers for that train. *)
let show_platform_race () =
  Fmt.pr "@.-- the race a zero-headway track exposes --@.";
  let racy_pim = pim_of ~headway:0 in
  let pim_ok =
    Psv.verify_response (net ~headway:0) ~trigger:"m_Train"
      ~response:"c_GateDown" ~bound:requirement_bound
  in
  Fmt.pr "%-24s P(%d): %s@." "PIM (headway 0)" requirement_bound
    (match pim_ok with
     | Mc.Query.Holds | Mc.Query.Sup _ -> "holds"
     | Mc.Query.Fails _ -> "VIOLATED"
     | Mc.Query.Unknown _ -> "unknown");
  let psm = Transform.psm_of_pim racy_pim (scheme ~invocation:(Scheme.Aperiodic 0)) in
  let bound =
    (Psv.max_delay psm.Transform.psm_net ~trigger:"m_Train"
       ~response:"c_GateDown" ~ceiling:(4 * requirement_bound))
      .Mc.Explorer.so_sup
  in
  Fmt.pr "%-24s train -> gate-down sup: %a@." "PSM (headway 0)"
    Mc.Explorer.pp_sup_result bound;
  (* diagnose: a stable state where a train approaches an open gate *)
  let t = Mc.Explorer.make psm.Transform.psm_net in
  (* truly stranded: the train approaches an open gate and the whole
     platform is quiescent - nothing in flight that could still fix it *)
  let stranded st =
    Mc.Explorer.at t ~aut:"Track" ~loc:"Approaching" st
    && Mc.Explorer.at t ~aut:"GateCtrl_IO" ~loc:"Open" st
    && Mc.Explorer.at t ~aut:"IFMI_Train" ~loc:"Idle" st
    && Mc.Explorer.at t ~aut:"IFMI_Clear" ~loc:"Idle" st
    && Mc.Explorer.at t ~aut:"EXEIO" ~loc:"Waiting" st
    && Mc.Explorer.var_value t "ibuf_Train" st = 0
    && Mc.Explorer.var_value t "ibuf_Clear" st = 0
  in
  (match Mc.Explorer.timed_trace t stranded with
   | Ok (Some steps) ->
     Fmt.pr
       "@[<v 2>witness: the train input is discarded while the gate \
        controller is still closing out the previous train@,%a@]@."
       Fmt.(list ~sep:cut Mc.Explorer.pp_timed_step)
       steps
   | Ok None -> Fmt.pr "(race not reproduced?!)@."
   | Error reason ->
     Fmt.pr "(search interrupted: %a)@." Mc.Runctl.pp_reason reason)

let () =
  Fmt.pr "requirement: gate commanded down within %d ms of train detection@.@."
    requirement_bound;
  let pim_ok =
    Psv.verify_response (net ~headway:300) ~trigger:"m_Train"
      ~response:"c_GateDown" ~bound:requirement_bound
  in
  Fmt.pr "%-24s P(%d): %s@." "PIM (headway 300)" requirement_bound
    (match pim_ok with
     | Mc.Query.Holds | Mc.Query.Sup _ -> "holds"
     | Mc.Query.Fails _ -> "VIOLATED"
     | Mc.Query.Unknown _ -> "unknown");
  verify_psm "PSM event-driven" (Scheme.Aperiodic 0);
  verify_psm "PSM periodic(25)" (Scheme.Periodic 25);
  verify_psm "PSM periodic(60)" (Scheme.Periodic 60);
  simulate_approaches ();
  show_one_timeline ();
  show_platform_race ()
