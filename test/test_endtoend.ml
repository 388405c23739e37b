(* End-to-end property tests across the implementation-scheme space.

   For random schemes drawn from Section III's category, the simulated
   implementation's measured end-to-end delay must be bounded by

   - the analytic relaxed bound of Lemmas 1-2, and
   - the model-checked bound of the transformed PSM (Theorem 1's
     conclusion, observed on the implementation).

   These properties tie together all five subsystems (scheme, transform,
   mc, analysis, sim) through two independent computations of the same
   quantity, so they are the repository's strongest integration check. *)

open Ta

let loc = Model.location
let edge = Model.edge

(* The lamp PIM: respond to m_Press with c_On within [10, 50].  Aperiodic
   invocation forbids timed waits in the software, so those schemes use
   an immediate-response controller (same 50 ms deadline, no lower
   bound). *)
let lamp_net ~immediate =
  let answer =
    if immediate then
      edge ~sync:(Model.Send "c_On") "Switching" "On"
    else
      edge ~guard:[ Clockcons.ge "x" 10 ] ~sync:(Model.Send "c_On")
        "Switching" "On"
  in
  let controller =
    Model.automaton ~name:"Controller" ~initial:"Off"
      [ loc "Off"; loc ~inv:[ Clockcons.le "x" 50 ] "Switching"; loc "On" ]
      [ edge ~sync:(Model.Recv "m_Press") ~resets:[ "x" ] "Off" "Switching";
        answer ]
  in
  let user =
    Model.automaton ~name:"User" ~initial:"Idle"
      [ loc "Idle"; loc "Waiting"; loc "Happy" ]
      [ edge ~sync:(Model.Send "m_Press") "Idle" "Waiting";
        edge ~sync:(Model.Recv "c_On") "Waiting" "Happy" ]
  in
  Model.network ~name:"lamp" ~clocks:[ "x" ] ~vars:[]
    ~channels:[ ("m_Press", Model.Broadcast); ("c_On", Model.Broadcast) ]
    [ controller; user ]

let lamp_pim scheme =
  let immediate =
    match scheme.Scheme.is_invocation with
    | Scheme.Aperiodic _ -> true
    | Scheme.Periodic _ -> false
  in
  Transform.Pim.make (lamp_net ~immediate) ~software:"Controller"
    ~environment:"User"

let pim_internal_bound = 50

(* --- random schemes ------------------------------------------------------ *)

let gen_scheme =
  let open QCheck.Gen in
  let* period = int_range 10 50 in
  let* invocation =
    oneof
      [ return (Scheme.Periodic period);
        map (fun gap -> Scheme.Aperiodic gap) (int_range 0 5) ]
  in
  let* wcet_max = int_range 2 (max 2 (period / 2)) in
  let* in_dmax = int_range 1 20 in
  let* out_dmax = int_range 1 20 in
  let* input =
    oneof
      [ return (Scheme.interrupt_input (Scheme.delay 1 in_dmax));
        (let* interval = int_range 5 30 in
         return (Scheme.polling_input ~interval (Scheme.delay 1 in_dmax))) ]
  in
  let* comm =
    oneof
      [ (let* size = int_range 1 4 in
         let* policy = oneofl [ Scheme.Read_one; Scheme.Read_all ] in
         return (Scheme.Buffer (size, policy)));
        return Scheme.Shared_variable ]
  in
  return
    { Scheme.is_name = "random";
      is_inputs = [ ("m_Press", input) ];
      is_outputs = [ ("c_On", Scheme.pulse_output (Scheme.delay 1 out_dmax)) ];
      is_input_comm = comm;
      is_output_comm = comm;
      is_invocation = invocation;
      is_exec = { Scheme.wcet_min = 1; wcet_max } }

let print_scheme = Fmt.to_to_string Scheme.pp

let arb_scheme = QCheck.make ~print:print_scheme gen_scheme

(* Typical-case distributions spanning the whole WCET windows: the
   simulator may draw the worst case, so the bounds really are exercised
   at their edges. *)
let typical_of scheme =
  let window (d : Scheme.delay_bounds) =
    (float_of_int d.Scheme.delay_min, float_of_int d.Scheme.delay_max)
  in
  { Sim.Engine.typ_input_proc =
      (fun m -> window (Scheme.input_spec scheme m).Scheme.in_delay);
    typ_output_proc =
      (fun c -> window (Scheme.output_spec scheme c).Scheme.out_delay);
    typ_exec =
      ( float_of_int scheme.Scheme.is_exec.Scheme.wcet_min,
        float_of_int scheme.Scheme.is_exec.Scheme.wcet_max ) }

let simulate_once ~seed scheme =
  let analytic =
    Analysis.Bounds.relaxed_mc_delay scheme ~input:"m_Press" ~output:"c_On"
      ~internal:pim_internal_bound
  in
  let rng = Sim.Rng.create seed in
  let press = Sim.Rng.float_range rng 0.0 100.0 in
  let config =
    { Sim.Engine.cfg_pim = lamp_pim scheme;
      cfg_scheme = scheme;
      cfg_typical = typical_of scheme;
      cfg_stimuli = [ (press, "m_Press") ];
      cfg_horizon = press +. (3.0 *. float_of_int analytic) +. 200.0 }
  in
  let log = Sim.Engine.run ~seed config in
  match Sim.Measure.samples log ~trigger:"m_Press" ~response:"c_On" with
  | [ sample ] -> (analytic, Sim.Measure.mc_delay sample)
  | samples ->
    QCheck.Test.fail_reportf "expected one sample, got %d"
      (List.length samples)

let prop_measured_within_analytic =
  QCheck.Test.make
    ~name:"simulated delay is within the Lemma-1/2 bound (random schemes)"
    ~count:150
    (QCheck.pair arb_scheme QCheck.small_int)
    (fun (scheme, seed) ->
      QCheck.assume (Scheme.check scheme = []);
      match simulate_once ~seed scheme with
      | analytic, Some delay ->
        if delay <= float_of_int analytic then true
        else
          QCheck.Test.fail_reportf "measured %.1f > analytic %d" delay
            analytic
      | _, None ->
        (* the single press can be lost only through a missed interrupt
           or a full slot, both possible for tiny buffers under re-entry;
           with a single stimulus neither can happen *)
        QCheck.Test.fail_reportf "the single press was lost")

let prop_measured_within_verified =
  QCheck.Test.make
    ~name:"simulated delay is within the model-checked PSM bound"
    ~count:40
    (QCheck.pair arb_scheme QCheck.small_int)
    (fun (scheme, seed) ->
      QCheck.assume (Scheme.check scheme = []);
      let analytic, measured = simulate_once ~seed scheme in
      match measured with
      | None -> QCheck.Test.fail_reportf "the single press was lost"
      | Some delay ->
        let psm = Transform.psm_of_pim (lamp_pim scheme) scheme in
        let verified =
          (Mc.Query.max_delay psm.Transform.psm_net
             ~trigger:"m_Press" ~response:"c_On" ~ceiling:(2 * analytic))
            .Mc.Explorer.so_sup
        in
        (match verified with
         | Mc.Explorer.Sup (bound, _) ->
           if delay <= float_of_int bound then true
           else
             QCheck.Test.fail_reportf "measured %.1f > verified %d" delay
               bound
         | Mc.Explorer.Sup_exceeds _ ->
           (* sound but above the ceiling: nothing to contradict *)
           true
         | Mc.Explorer.Sup_unreached ->
           QCheck.Test.fail_reportf
             "the press is measurable in the simulator but the monitor \
              never triggered in the PSM"))

(* The verified bound can never exceed the analytic one by construction
   of the analytic worst case... it can, however, be *smaller* (the model
   checker sees correlations).  Check the sound direction only: analytic
   >= verified. *)
let prop_analytic_dominates_verified =
  QCheck.Test.make
    ~name:"Lemma-1/2 bound dominates the model-checked bound" ~count:40
    arb_scheme
    (fun scheme ->
      QCheck.assume (Scheme.check scheme = []);
      let analytic =
        Analysis.Bounds.relaxed_mc_delay scheme ~input:"m_Press"
          ~output:"c_On" ~internal:pim_internal_bound
      in
      let psm = Transform.psm_of_pim (lamp_pim scheme) scheme in
      let verified =
        (Mc.Query.max_delay psm.Transform.psm_net ~trigger:"m_Press"
           ~response:"c_On" ~ceiling:(2 * analytic))
          .Mc.Explorer.so_sup
      in
      match verified with
      | Mc.Explorer.Sup (bound, _) ->
        if bound <= analytic then true
        else
          QCheck.Test.fail_reportf "verified %d > analytic %d" bound analytic
      | Mc.Explorer.Sup_unreached ->
        QCheck.Test.fail_reportf "press unreachable in the PSM"
      | Mc.Explorer.Sup_exceeds _ ->
        QCheck.Test.fail_reportf
          "verified bound above 2x the analytic bound")

let suite =
  [ QCheck_alcotest.to_alcotest prop_measured_within_analytic;
    QCheck_alcotest.to_alcotest prop_measured_within_verified;
    QCheck_alcotest.to_alcotest prop_analytic_dominates_verified ]
