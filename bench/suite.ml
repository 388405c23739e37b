(* The GPCA sup queries both bench executables run: the Table-I PIM
   bound and the three PSM boundary delays.  [main.exe] times them (and
   appends its railroad rows) for BENCH_explorer.json; [incr_bench.exe]
   edits their networks one constant at a time. *)

let params = Gpca.Params.default

(* One sup query of the workload: a name for reporting, a thunk
   building its network, and the boundary pair with its ceiling. *)
type spec = {
  qs_name : string;
  qs_net : unit -> Ta.Model.network;
  qs_trigger : string;
  qs_response : string;
  qs_ceiling : int;
}

let spec name net ~trigger ~response ~ceiling =
  { qs_name = name; qs_net = net; qs_trigger = trigger;
    qs_response = response; qs_ceiling = ceiling }

let query q =
  Mc.Query.Sup_delay
    { trigger = q.qs_trigger; response = q.qs_response; ceiling = q.qs_ceiling }

let gpca () =
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
      ~ceiling:gpca_ceiling ]
