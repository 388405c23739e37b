(* The paper's Section VI results as regression tests.  These pin the
   headline numbers of Table I: the verified PSM bounds equal the
   published 1430/490/440 ms, the PIM meets REQ1 while the PSM does not,
   and every simulated measurement is bounded by its verified bound. *)

let params = Gpca.Params.default

let test_pim_meets_req1 () =
  let net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only params in
  Alcotest.(check bool) "PIM |= P(500)" true
    (Psv.verify_response net ~trigger:Gpca.Model.bolus_req
       ~response:Gpca.Model.start_infusion ~bound:Gpca.Params.req1_bound
     = Mc.Query.Holds)

let test_pim_bound_exactly_500 () =
  let net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only params in
  let r =
    Psv.max_delay net ~trigger:Gpca.Model.bolus_req
      ~response:Gpca.Model.start_infusion ~ceiling:1000
  in
  (match r.Mc.Explorer.so_sup with
   | Mc.Explorer.Sup (500, false) -> ()
   | sup ->
     Alcotest.failf "PIM internal bound should be <= 500, got %a"
       Mc.Explorer.pp_sup_result sup)

let test_psm_violates_req1 () =
  let psm = Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params in
  (match
     Psv.verify_response psm.Transform.psm_net ~trigger:Gpca.Model.bolus_req
       ~response:Gpca.Model.start_infusion ~bound:Gpca.Params.req1_bound
   with
   | Mc.Query.Fails _ -> ()
   | Mc.Query.Holds | Mc.Query.Sup _ | Mc.Query.Unknown _ ->
     Alcotest.fail "PSM should refute P(500)")

let check_sup label expected = function
  | Mc.Explorer.Sup (v, _) -> Alcotest.(check int) label expected v
  | sup ->
    Alcotest.failf "%s: expected a bounded sup, got %a" label
      Mc.Explorer.pp_sup_result sup

let test_verified_bounds_match_table1 () =
  let v = Gpca.Experiment.verified_bounds params in
  check_sup "M-C bound" 1430 v.Gpca.Experiment.v_mc;
  check_sup "Input-Delay bound" 490 v.Gpca.Experiment.v_input;
  check_sup "Output-Delay bound" 440 v.Gpca.Experiment.v_output;
  Alcotest.(check bool) "no buffer overflow" true
    v.Gpca.Experiment.v_overflow_free

let test_analytic_matches_verified () =
  let a = Gpca.Experiment.analytic_bounds params in
  Alcotest.(check int) "input" 490 a.Gpca.Experiment.a_input;
  Alcotest.(check int) "output" 440 a.Gpca.Experiment.a_output;
  Alcotest.(check int) "internal" 500 a.Gpca.Experiment.a_internal;
  Alcotest.(check int) "Delta'mc" 1430 a.Gpca.Experiment.a_mc

let test_psm_satisfies_relaxed_bound () =
  let psm = Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params in
  Alcotest.(check bool) "PSM |= P(1430)" true
    (Psv.verify_response psm.Transform.psm_net ~trigger:Gpca.Model.bolus_req
       ~response:Gpca.Model.start_infusion ~bound:1430
     = Mc.Query.Holds)

(* The paper's headline: every measured delay is bounded by the verified
   bound (Theorem 1's conclusion observed on the implementation). *)
let test_measured_within_verified () =
  let m = Gpca.Experiment.measure ~scenarios:30 ~seed:2026 params in
  Alcotest.(check bool) "max M-C <= 1430" true
    (m.Gpca.Experiment.m_mc.Sim.Measure.st_max <= 1430.0);
  Alcotest.(check bool) "max input <= 490" true
    (m.Gpca.Experiment.m_input.Sim.Measure.st_max <= 490.0);
  Alcotest.(check bool) "max output <= 440" true
    (m.Gpca.Experiment.m_output.Sim.Measure.st_max <= 440.0);
  Alcotest.(check int) "no losses" 0 m.Gpca.Experiment.m_losses

let test_majority_violate_req1 () =
  let m = Gpca.Experiment.measure ~scenarios:30 ~seed:7 params in
  Alcotest.(check bool) "most scenarios exceed 500 ms" true
    (m.Gpca.Experiment.m_req1_violations * 2 > m.Gpca.Experiment.m_scenarios)

let test_measure_deterministic () =
  let a = Gpca.Experiment.measure ~scenarios:5 ~seed:11 params in
  let b = Gpca.Experiment.measure ~scenarios:5 ~seed:11 params in
  Alcotest.(check (float 0.0)) "same seed, same average"
    a.Gpca.Experiment.m_mc.Sim.Measure.st_avg
    b.Gpca.Experiment.m_mc.Sim.Measure.st_avg

let test_constraints_all_satisfied () =
  let psm = Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params in
  Alcotest.(check bool) "constraints 1-4" true
    (Analysis.Constraints.all_satisfied (Analysis.Constraints.check_all psm))

let test_full_variant_alarm_path () =
  (* With the empty-syringe path, the alarm is raised within its bound on
     the PIM. *)
  let net = Gpca.Model.network ~variant:Gpca.Model.Full params in
  Alcotest.(check bool) "alarm within 150" true
    (Psv.verify_response net ~trigger:Gpca.Model.empty_syringe
       ~response:Gpca.Model.alarm ~bound:params.Gpca.Params.alarm_max
     = Mc.Query.Holds)

let test_model_validates () =
  List.iter
    (fun variant ->
      Alcotest.(check (list string)) "valid" []
        (Ta.Model.validate (Gpca.Model.network ~variant params)))
    [ Gpca.Model.Bolus_only; Gpca.Model.Full ]

let suite =
  [ Alcotest.test_case "PIM meets REQ1" `Quick test_pim_meets_req1;
    Alcotest.test_case "PIM bound is exactly 500" `Quick
      test_pim_bound_exactly_500;
    Alcotest.test_case "PSM violates REQ1" `Slow test_psm_violates_req1;
    Alcotest.test_case "verified bounds match Table I" `Slow
      test_verified_bounds_match_table1;
    Alcotest.test_case "analytic bounds match Table I" `Quick
      test_analytic_matches_verified;
    Alcotest.test_case "PSM satisfies the relaxed bound" `Slow
      test_psm_satisfies_relaxed_bound;
    Alcotest.test_case "measured delays within verified bounds" `Slow
      test_measured_within_verified;
    Alcotest.test_case "majority of runs violate REQ1" `Quick
      test_majority_violate_req1;
    Alcotest.test_case "measurement is deterministic" `Quick
      test_measure_deterministic;
    Alcotest.test_case "constraints all satisfied" `Slow
      test_constraints_all_satisfied;
    Alcotest.test_case "alarm path verified (full variant)" `Quick
      test_full_variant_alarm_path;
    Alcotest.test_case "models validate" `Quick test_model_validates ]
