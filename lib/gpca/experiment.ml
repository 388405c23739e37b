type verified = {
  v_mc : Mc.Explorer.sup_result;
  v_input : Mc.Explorer.sup_result;
  v_output : Mc.Explorer.sup_result;
  v_overflow_free : bool;
}

type analytic = {
  a_input : int;
  a_output : int;
  a_internal : int;
  a_mc : int;
}

type measured = {
  m_mc : Sim.Measure.stats;
  m_input : Sim.Measure.stats;
  m_output : Sim.Measure.stats;
  m_losses : int;
  m_req1_violations : int;
  m_scenarios : int;
}

type table1 = {
  t_analytic : analytic;
  t_verified : verified;
  t_measured : measured;
}

let analytic_bounds p =
  let scheme = Params.scheme p in
  let a_input = Analysis.Bounds.input_delay scheme Model.bolus_req in
  let a_output = Analysis.Bounds.output_delay scheme Model.start_infusion in
  let a_internal = p.Params.prep_max in
  { a_input; a_output; a_internal; a_mc = a_input + a_output + a_internal }

let verified_bounds ?ceiling p =
  let ceiling =
    match ceiling with
    | Some c -> c
    | None -> 2 * (analytic_bounds p).a_mc
  in
  let psm = Model.psm ~variant:Model.Bolus_only p in
  let net = psm.Transform.psm_net in
  let sup ~trigger ~response =
    (Mc.Query.max_delay net ~trigger ~response ~ceiling)
      .Mc.Explorer.so_sup
  in
  let constraints = Analysis.Constraints.check_all psm in
  let overflow_free =
    List.for_all
      (fun (r : Analysis.Constraints.result) ->
        match r.Analysis.Constraints.c_status with
        | Analysis.Constraints.Satisfied -> true
        | Analysis.Constraints.Violated _ -> false
        | Analysis.Constraints.Unknown _ ->
          (* constraint 4's structural check; the bolus-only software has
             no internal transitions, so this does not occur *)
          false)
      constraints
  in
  { v_mc = sup ~trigger:Model.bolus_req ~response:Model.start_infusion;
    v_input =
      sup ~trigger:Model.bolus_req
        ~response:(Transform.Names.input_chan Model.bolus_req);
    v_output =
      sup
        ~trigger:(Transform.Names.output_chan Model.start_infusion)
        ~response:Model.start_infusion;
    v_overflow_free = overflow_free }

let typical p =
  let float_pair (lo, hi) = (float_of_int lo, float_of_int hi) in
  { Sim.Engine.typ_input_proc =
      (fun m ->
        if m = Model.bolus_req then float_pair p.Params.typ_bolus_proc
        else
          let d = (Scheme.input_spec (Params.scheme p) m).Scheme.in_delay in
          (float_of_int d.Scheme.delay_min, float_of_int d.Scheme.delay_max));
    typ_output_proc = (fun _ -> float_pair p.Params.typ_output_proc);
    typ_exec = float_pair p.Params.typ_exec }

let scenario_config ?(variant = Model.Bolus_only) p ~request_time =
  let pim = Model.pim ~variant p in
  let scheme =
    match variant with
    | Model.Full -> Params.scheme p
    | Model.Bolus_only ->
      let s = Params.scheme p in
      { s with
        Scheme.is_inputs =
          List.filter (fun (m, _) -> m = Model.bolus_req) s.Scheme.is_inputs;
        is_outputs =
          List.filter
            (fun (c, _) -> c <> Model.alarm)
            s.Scheme.is_outputs }
  in
  { Sim.Engine.cfg_pim = pim;
    cfg_scheme = scheme;
    cfg_typical = typical p;
    cfg_stimuli = [ (request_time, Model.bolus_req) ];
    cfg_horizon = request_time +. 8.0 *. float_of_int p.Params.period
                  +. float_of_int (2 * (analytic_bounds p).a_mc) }

let is_loss = function
  | Sim.Engine.Input_lost _ | Sim.Engine.Output_lost _ -> true
  | Sim.Engine.Env_signal _ | Sim.Engine.Input_inserted _
  | Sim.Engine.Input_read _ | Sim.Engine.Input_discarded _
  | Sim.Engine.Code_output _ | Sim.Engine.Output_visible _ -> false

let measure ?(scenarios = 60) ~seed p =
  let rng = Sim.Rng.create seed in
  let run_one index =
    let request_time =
      Sim.Rng.float_range rng 0.0 (float_of_int (10 * p.Params.period))
    in
    let config = scenario_config p ~request_time in
    let log = Sim.Engine.run ~seed:(seed + (1000 * (index + 1))) config in
    let losses = Sim.Measure.count log is_loss in
    match
      Sim.Measure.samples log ~trigger:Model.bolus_req
        ~response:Model.start_infusion
    with
    | [ sample ] -> (sample, losses)
    | samples ->
      Fmt.failwith "scenario %d: expected 1 bolus sample, got %d" index
        (List.length samples)
  in
  let observations = List.init scenarios run_one in
  let delays f =
    List.filter_map (fun (sample, _) -> f sample) observations
  in
  let force what = function
    | Some stats -> stats
    | None -> Fmt.failwith "no complete %s observations" what
  in
  let mc_delays = delays Sim.Measure.mc_delay in
  { m_mc = force "M-C" (Sim.Measure.stats_of mc_delays);
    m_input =
      force "input" (Sim.Measure.stats_of (delays Sim.Measure.input_delay));
    m_output =
      force "output" (Sim.Measure.stats_of (delays Sim.Measure.output_delay));
    m_losses = List.fold_left (fun acc (_, l) -> acc + l) 0 observations;
    m_req1_violations =
      List.length
        (List.filter
           (fun d -> d > float_of_int Params.req1_bound)
           mc_delays);
    m_scenarios = scenarios }

let table1 ~seed p =
  { t_analytic = analytic_bounds p;
    t_verified = verified_bounds p;
    t_measured = measure ~seed p }

let pp_sup = Mc.Explorer.pp_sup_result

let pp_table1 ppf t =
  let m = t.t_measured in
  Fmt.pf ppf
    "@[<v>TABLE I - THE EXPERIMENT RESULT (time unit: 1 ms)@,\
     @,\
     %-28s | %-12s | %-12s | %-12s | %s@,%s@,"
    "" "M-C delay" "Input delay" "Output delay" "Buffer overflow"
    (String.make 88 '-');
  Fmt.pf ppf "%-28s | %-12s | %-12s | %-12s | %s@,"
    "Verified upper bound (PSM)"
    (Fmt.str "%a" pp_sup t.t_verified.v_mc)
    (Fmt.str "%a" pp_sup t.t_verified.v_input)
    (Fmt.str "%a" pp_sup t.t_verified.v_output)
    (if t.t_verified.v_overflow_free then "not occurring" else "OCCURRING");
  Fmt.pf ppf "%-28s | %-12s | %-12s | %-12s | %s@,"
    "Analytic bound (Lemma 1/2)"
    (string_of_int t.t_analytic.a_mc)
    (string_of_int t.t_analytic.a_input)
    (string_of_int t.t_analytic.a_output) "-";
  let row label f =
    Fmt.pf ppf "%-28s | %-12.0f | %-12.0f | %-12.0f | %s@," label
      (f m.m_mc) (f m.m_input) (f m.m_output)
      (if m.m_losses = 0 then "not occurring" else "OCCURRING")
  in
  row "Measured delay (IMP) avg" (fun s -> s.Sim.Measure.st_avg);
  row "Measured delay (IMP) max" (fun s -> s.Sim.Measure.st_max);
  row "Measured delay (IMP) min" (fun s -> s.Sim.Measure.st_min);
  Fmt.pf ppf "@,REQ1 (500 ms) violated in %d of %d scenarios@]"
    m.m_req1_violations m.m_scenarios

type supplemental = {
  sup_alarm_pim : Mc.Explorer.sup_result;
  sup_pause_pim : Mc.Explorer.sup_result;
  sup_alarm_analytic : int;
  sup_pause_analytic : int;
  sup_alarm_psm : Mc.Explorer.sup_result;
  sup_pause_psm : Mc.Explorer.sup_result;
}

let supplemental p =
  let scheme = Params.scheme p in
  let pim_net = Model.network ~variant:Model.Full p in
  let pim_sup ~trigger ~response =
    (Mc.Query.max_delay pim_net ~trigger ~response ~ceiling:2000)
      .Mc.Explorer.so_sup
  in
  let psm_net = (Model.psm ~variant:Model.Full p).Transform.psm_net in
  let psm_sup ~trigger ~response =
    (Mc.Query.max_delay ~limit:2_000_000 psm_net ~trigger ~response
       ~ceiling:2000)
      .Mc.Explorer.so_sup
  in
  let analytic ~input ~output ~internal =
    Analysis.Bounds.relaxed_mc_delay scheme ~input ~output ~internal
  in
  { sup_alarm_pim = pim_sup ~trigger:Model.empty_syringe ~response:Model.alarm;
    sup_pause_pim =
      pim_sup ~trigger:Model.pause_req ~response:Model.pause_infusion;
    sup_alarm_analytic =
      analytic ~input:Model.empty_syringe ~output:Model.alarm
        ~internal:p.Params.alarm_max;
    sup_pause_analytic =
      analytic ~input:Model.pause_req ~output:Model.pause_infusion
        ~internal:p.Params.pause_max;
    sup_alarm_psm =
      psm_sup ~trigger:Model.empty_syringe ~response:Model.alarm;
    sup_pause_psm =
      psm_sup ~trigger:Model.pause_req ~response:Model.pause_infusion }

let pp_supplemental ppf s =
  Fmt.pf ppf
    "@[<v>REQ2 empty-syringe -> alarm:  PIM %a | analytic %d | PSM %a@,\
     REQ3 pause request -> stopped: PIM %a | analytic %d | PSM %a@]"
    pp_sup s.sup_alarm_pim s.sup_alarm_analytic pp_sup s.sup_alarm_psm
    pp_sup s.sup_pause_pim s.sup_pause_analytic pp_sup s.sup_pause_psm
