(* The Section VI case study, end to end: REQ1 on the GPCA infusion pump.

   1. Verify the PIM satisfies REQ1 (bolus starts within 500 ms).
   2. Transform the PIM under the Section-VI scheme (IS1 with a polled
      bolus-request button) and show the PSM violates REQ1.
   3. Check the four boundedness constraints, derive the relaxed bound
      Delta'mc = 1430 ms, and verify the PSM satisfies it.
   4. Run 60 simulated bolus scenarios and print the full Table I.

   Run with: dune exec examples/infusion_pump.exe *)

let params = Gpca.Params.default

let () =
  let bound = Gpca.Params.req1_bound in
  let pim_net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only params in

  Fmt.pr "== Step 1: the platform-independent model ==@.";
  let pim_ok =
    Psv.verify_response pim_net ~trigger:Gpca.Model.bolus_req
      ~response:Gpca.Model.start_infusion ~bound
  in
  Fmt.pr "PIM |= P(%d): %a  (REQ1 holds on the model)@.@." bound
    Mc.Query.pp_outcome pim_ok;

  Fmt.pr "== Step 2: the platform-specific model ==@.";
  let psm = Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params in
  let scheme = psm.Transform.psm_scheme in
  Fmt.pr "%a@.@." Scheme.pp scheme;
  let psm_ok =
    Psv.verify_response psm.Transform.psm_net ~trigger:Gpca.Model.bolus_req
      ~response:Gpca.Model.start_infusion ~bound
  in
  Fmt.pr "PSM |= P(%d): %a  (the platform breaks REQ1)@.@." bound
    Mc.Query.pp_outcome psm_ok;

  Fmt.pr "== Step 3: boundedness constraints and the relaxed bound ==@.";
  let constraints = Analysis.Constraints.check_all psm in
  List.iter (Fmt.pr "%a@." Analysis.Constraints.pp_result) constraints;
  let analytic = Gpca.Experiment.analytic_bounds params in
  Fmt.pr "Delta'mc = %d + %d + %d = %d ms (Lemma 2)@."
    analytic.Gpca.Experiment.a_input analytic.Gpca.Experiment.a_output
    analytic.Gpca.Experiment.a_internal analytic.Gpca.Experiment.a_mc;
  let relaxed_ok =
    Psv.verify_response psm.Transform.psm_net ~trigger:Gpca.Model.bolus_req
      ~response:Gpca.Model.start_infusion ~bound:analytic.Gpca.Experiment.a_mc
  in
  Fmt.pr "PSM |= P(%d): %a  (the relaxed requirement holds)@.@."
    analytic.Gpca.Experiment.a_mc Mc.Query.pp_outcome relaxed_ok;

  Fmt.pr "== Step 4: Table I ==@.";
  let table = Gpca.Experiment.table1 ~seed:42 params in
  Fmt.pr "%a@." Gpca.Experiment.pp_table1 table;

  Fmt.pr "@.== Step 5: one simulated scenario, as a timeline ==@.";
  let config = Gpca.Experiment.scenario_config params ~request_time:123.0 in
  let log = Sim.Engine.run ~seed:7 config in
  Fmt.pr "%s%s@." (Sim.Timeline.render ~width:68 log) Sim.Timeline.legend;

  Fmt.pr "@.== Step 6: supplemental requirements (REQ2 alarm, REQ3 pause) ==@.";
  let s = Gpca.Experiment.supplemental params in
  Fmt.pr "%a@." Gpca.Experiment.pp_supplemental s
