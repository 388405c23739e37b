(* Quickstart: the whole framework on a miniature system.

   A lamp controller: when the user presses a button (m_Press), the lamp
   must turn on (c_On) within 50 ms.  The controller model satisfies the
   requirement; its implementation on a platform with interrupt input,
   buffered communication and a 20 ms periodic executive does not - and
   the framework computes the relaxed bound that the implementation
   does satisfy.

   Run with: dune exec examples/quickstart.exe *)

open Ta

let loc = Model.location
let edge = Model.edge

(* 1. The platform-independent model: controller || user. *)

let controller =
  Model.automaton ~name:"Controller" ~initial:"Off"
    [ loc "Off";
      (* turning the lamp on takes 10-50 ms of actuation logic *)
      loc ~inv:[ Clockcons.le "x" 50 ] "Switching";
      loc "On" ]
    [ edge ~sync:(Model.Recv "m_Press") ~resets:[ "x" ] "Off" "Switching";
      edge ~guard:[ Clockcons.ge "x" 10 ] ~sync:(Model.Send "c_On")
        "Switching" "On" ]

let user =
  Model.automaton ~name:"User" ~initial:"Idle"
    [ loc "Idle"; loc "Waiting"; loc "Happy" ]
    [ edge ~sync:(Model.Send "m_Press") "Idle" "Waiting";
      edge ~sync:(Model.Recv "c_On") "Waiting" "Happy" ]

let pim_net =
  Model.network ~name:"lamp" ~clocks:[ "x" ] ~vars:[]
    ~channels:[ ("m_Press", Model.Broadcast); ("c_On", Model.Broadcast) ]
    [ controller; user ]

(* 2. The implementation scheme: interrupt input (1-3 ms), buffered io,
   20 ms periodic invocation, 5 ms output device. *)

let scheme =
  { Scheme.is_name = "lamp-platform";
    is_inputs = [ ("m_Press", Scheme.interrupt_input (Scheme.delay 1 3)) ];
    is_outputs = [ ("c_On", Scheme.pulse_output (Scheme.delay 2 5)) ];
    is_input_comm = Scheme.Buffer (2, Scheme.Read_all);
    is_output_comm = Scheme.Buffer (2, Scheme.Read_all);
    is_invocation = Scheme.Periodic 20;
    is_exec = { Scheme.wcet_min = 1; wcet_max = 5 } }

let () =
  (* 3. Verify the PIM: P(50) holds. *)
  let bound = 50 in
  let pim_ok =
    Psv.verify_response pim_net ~trigger:"m_Press" ~response:"c_On" ~bound
  in
  Fmt.pr "PIM:  press -> lamp-on within %d ms: %a@." bound
    Mc.Query.pp_outcome pim_ok;

  (* 4. Transform to the PSM and re-verify: P(50) fails on the platform. *)
  let pim = Transform.Pim.make pim_net ~software:"Controller" ~environment:"User" in
  let psm = Transform.psm_of_pim pim scheme in
  let psm_ok =
    Psv.verify_response psm.Transform.psm_net ~trigger:"m_Press"
      ~response:"c_On" ~bound
  in
  Fmt.pr "PSM:  press -> lamp-on within %d ms: %a@." bound
    Mc.Query.pp_outcome psm_ok;

  (* 5. The four constraints hold, so the delay is bounded; compute the
     analytic relaxed bound and the verified one. *)
  let constraints = Analysis.Constraints.check_all psm in
  List.iter (Fmt.pr "  %a@." Analysis.Constraints.pp_result) constraints;
  let analytic =
    Analysis.Bounds.relaxed_mc_delay scheme ~input:"m_Press" ~output:"c_On"
      ~internal:bound
  in
  let verified =
    Psv.max_delay psm.Transform.psm_net ~trigger:"m_Press" ~response:"c_On"
      ~ceiling:(2 * analytic)
  in
  Fmt.pr "Analytic relaxed bound (Lemma 2): %d ms@." analytic;
  Fmt.pr "Verified PSM bound:               %a@." Mc.Explorer.pp_sup_result
    verified.Mc.Explorer.so_sup;

  (* 6. Cross-check on the simulated implementation. *)
  let typical =
    { Sim.Engine.typ_input_proc = (fun _ -> (1.0, 3.0));
      typ_output_proc = (fun _ -> (2.0, 5.0));
      typ_exec = (1.0, 5.0) }
  in
  let config =
    { Sim.Engine.cfg_pim = pim;
      cfg_scheme = scheme;
      cfg_typical = typical;
      cfg_stimuli = [ (7.5, "m_Press") ];
      cfg_horizon = 500.0 }
  in
  let log = Sim.Engine.run ~seed:7 config in
  List.iter (Fmt.pr "  %a@." Sim.Engine.pp_entry) log;
  Fmt.pr "@.%s%s@.@." (Sim.Timeline.render ~width:60 log) Sim.Timeline.legend;
  match
    Sim.Measure.samples log ~trigger:"m_Press" ~response:"c_On"
    |> List.filter_map Sim.Measure.mc_delay
  with
  | [ delay ] ->
    Fmt.pr "Simulated implementation delay: %.1f ms (bound %d ms)@." delay
      analytic
  | _ -> Fmt.pr "unexpected simulation outcome@."
