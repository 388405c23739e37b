(* Benchmark and reproduction harness.

   Part 1 regenerates every evaluation artifact of the paper (Table I and
   the behavior shown in Figs. 1-6) plus the ablations of DESIGN.md,
   printing the rows/series; part 2 times the regeneration kernels with
   Bechamel (one Test.make per experiment).  It takes no arguments; the
   Table-I explorer queries are timed by perfbench's table1 workload.

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
  let verify_psm = Sys.getenv_opt "PSV_BENCH_FULL" <> None in
  if not verify_psm then
    Fmt.pr
      "(set PSV_BENCH_FULL=1 to also model-check the full-variant PSM;        ~2-4 minutes)@.";
  let s = Gpca.Experiment.supplemental ~verify_psm params in
  Fmt.pr "%a@." Gpca.Experiment.pp_supplemental s

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
  (match List.tl (Array.to_list Sys.argv) with
   | [] -> ()
   | arg :: _ ->
     prerr_endline ("bench: unexpected argument " ^ arg ^ " (bench takes none)");
     exit 3);
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
