(* Exploring the implementation-scheme design space.

   The same PIM deployed under different schemes gets different verified
   end-to-end bounds.  This example sweeps the GPCA case study over

   - the invocation period (the io-boundary knob),
   - the polling interval of the bolus-request input (the mc-boundary knob),
   - periodic vs aperiodic invocation, and read-all vs read-one,

   printing the Lemma-1/2 analytic bound next to the model-checked bound
   for each point.  The grid points are independent queries, so the two
   timed sweeps run on a domain pool (Analysis.Pool.map over
   Mc.Query.max_delay).

   Run with: dune exec examples/scheme_explorer.exe -- [--jobs N] *)

let base = Gpca.Params.default

let jobs =
  let rec find = function
    | "--jobs" :: n :: _ ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> j
       | Some _ | None ->
         prerr_endline "scheme_explorer: bad --jobs value";
         exit 2)
    | _ :: rest -> find rest
    | [] -> 1
  in
  find (Array.to_list Sys.argv)

(* Cap each verification so a fine-grained grid point that explodes the
   zone graph reports "too large" instead of stalling the sweep. *)
let state_limit = 400_000

let describe_result (r : Mc.Explorer.sup_outcome) =
  match r.Mc.Explorer.so_interrupt with
  | Some (Mc.Runctl.State_budget n) -> Fmt.str "(> %d states)" n
  | Some reason -> Fmt.str "(%a)" Mc.Runctl.pp_reason reason
  | None -> Fmt.str "%a" Mc.Explorer.pp_sup_result r.Mc.Explorer.so_sup

(* One grid point = one mc-boundary sup query on the point's PSM, built
   and explored on the worker domain: no model structure is shared
   between domains. *)
let verify_point p =
  Mc.Query.max_delay ~limit:state_limit
    (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only p).Transform.psm_net
    ~trigger:Gpca.Model.bolus_req ~response:Gpca.Model.start_infusion
    ~ceiling:(3 * (Gpca.Experiment.analytic_bounds p).Gpca.Experiment.a_mc)

let run_grid points =
  Analysis.Pool.map ~jobs (fun (_, p) -> verify_point p) points

let sweep_period () =
  Fmt.pr "== Invocation period sweep (polling 50, WCET window tracks period) ==@.";
  Fmt.pr "%8s | %14s | %14s@." "period" "analytic Δ'mc" "verified sup";
  let points =
    List.map
      (fun period ->
        let p =
          { base with
            Gpca.Params.period;
            exec = { Scheme.wcet_min = min 20 (period / 2); wcet_max = period } }
        in
        (period, p))
      [ 20; 50; 100; 200; 250 ]
  in
  let results = run_grid points in
  List.iter2
    (fun (period, p) r ->
      let analytic = (Gpca.Experiment.analytic_bounds p).Gpca.Experiment.a_mc in
      Fmt.pr "%8d | %14d | %14s@." period analytic (describe_result r))
    points results

let sweep_polling () =
  Fmt.pr "@.== Polling interval sweep (period 100) ==@.";
  Fmt.pr "%8s | %14s | %14s@." "poll" "analytic Δ'mc" "verified sup";
  let points =
    List.map
      (fun poll_interval ->
        (poll_interval, { base with Gpca.Params.poll_interval }))
      [ 25; 50; 100; 200 ]
  in
  let results = run_grid points in
  List.iter2
    (fun (poll_interval, p) r ->
      let analytic = (Gpca.Experiment.analytic_bounds p).Gpca.Experiment.a_mc in
      Fmt.pr "%8d | %14d | %14s@." poll_interval analytic (describe_result r))
    points results

(* Scheme-shape matrix: hold the GPCA parameters, change the io-boundary
   mechanisms.  Aperiodic invocation removes the period term from the
   input delay; read-one can serialise bursts. *)
let sweep_mechanisms () =
  Fmt.pr "@.== Mechanism matrix (analytic bounds) ==@.";
  let scheme = Gpca.Params.scheme base in
  let describe label s =
    let input = Analysis.Bounds.input_delay s Gpca.Model.bolus_req in
    let output = Analysis.Bounds.output_delay s Gpca.Model.start_infusion in
    Fmt.pr "%-34s | input <= %4d | output <= %4d | Δ'mc <= %4d@." label input
      output
      (input + output + base.Gpca.Params.prep_max)
  in
  describe "periodic(100) + buffer read-all" scheme;
  describe "periodic(100) + buffer read-one"
    { scheme with
      Scheme.is_input_comm = Scheme.Buffer (5, Scheme.Read_one) };
  describe "periodic(100) + shared variable"
    { scheme with Scheme.is_input_comm = Scheme.Shared_variable };
  describe "aperiodic(0) + buffer read-all"
    { scheme with Scheme.is_invocation = Scheme.Aperiodic 0 };
  describe "aperiodic(10) + buffer read-all"
    { scheme with Scheme.is_invocation = Scheme.Aperiodic 10 };
  Fmt.pr
    "(aperiodic rows are analytic what-ifs: the transformation rejects      aperiodic invocation for software with timed waits, like the GPCA      bolus preparation)@."

let () =
  sweep_period ();
  sweep_polling ();
  sweep_mechanisms ()
