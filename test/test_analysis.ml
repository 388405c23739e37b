(* Tests for the analytic bounds (Lemma 1/2), the Section-V constraint
   checks, and the verified-delay queries. *)

open Ta

let loc = Model.location
let edge = Model.edge

let scheme ?(input = Scheme.interrupt_input (Scheme.delay 1 3))
    ?(input_comm = Scheme.Buffer (4, Scheme.Read_all))
    ?(invocation = Scheme.Periodic 20) () =
  { Scheme.is_name = "analysis-test";
    is_inputs = [ ("m_a", input) ];
    is_outputs = [ ("c_b", Scheme.pulse_output (Scheme.delay 2 5)) ];
    is_input_comm = input_comm;
    is_output_comm = Scheme.Buffer (4, Scheme.Read_all);
    is_invocation = invocation;
    is_exec = { Scheme.wcet_min = 1; wcet_max = 6 } }

(* --- Lemma 1 ------------------------------------------------------------ *)

let test_input_delay_interrupt_readall () =
  (* 0 detection + 3 processing + 20 period *)
  Alcotest.(check int) "interrupt" 23
    (Analysis.Bounds.input_delay (scheme ()) "m_a")

let test_input_delay_polling () =
  let input = Scheme.polling_input ~interval:7 (Scheme.delay 1 3) in
  (* 7 detection + 3 processing + 20 period *)
  Alcotest.(check int) "polling" 30
    (Analysis.Bounds.input_delay (scheme ~input ()) "m_a")

let test_input_delay_read_one () =
  let s = scheme ~input_comm:(Scheme.Buffer (4, Scheme.Read_one)) () in
  (* 0 + 3 + 4 slots * 20 *)
  Alcotest.(check int) "read-one charges the queue" 83
    (Analysis.Bounds.input_delay s "m_a")

let test_input_delay_aperiodic () =
  let s = scheme ~invocation:(Scheme.Aperiodic 2) () in
  (* 0 + 3 + gap 2 *)
  Alcotest.(check int) "aperiodic" 5 (Analysis.Bounds.input_delay s "m_a")

let test_output_delay () =
  (* visibility 6 (wcet_max) + 5 processing *)
  Alcotest.(check int) "single output" 11
    (Analysis.Bounds.output_delay (scheme ()) "c_b");
  Alcotest.(check int) "queued outputs charge the device" 21
    (Analysis.Bounds.output_delay ~queued_before:2 (scheme ()) "c_b")

let test_lemma2 () =
  Alcotest.(check int) "Delta'mc = Dmi + Doc + internal" (23 + 11 + 100)
    (Analysis.Bounds.relaxed_mc_delay (scheme ()) ~input:"m_a" ~output:"c_b"
       ~internal:100)

let test_detects_all_inputs () =
  Alcotest.(check bool) "fast device" true
    (Analysis.Bounds.detects_all_inputs (scheme ()) "m_a" ~min_interarrival:10);
  Alcotest.(check bool) "slow device" false
    (Analysis.Bounds.detects_all_inputs (scheme ()) "m_a" ~min_interarrival:3)

(* --- constraints ---------------------------------------------------------- *)

(* Burst PIM: two pulses 2 ms apart; with a 1-slot buffer and a slow
   period the second processed input overflows. *)
let burst_pim () =
  let soft =
    Model.automaton ~name:"Soft" ~initial:"S0"
      [ loc "S0"; loc "S1"; loc "S2"; loc "S3" ]
      [ edge ~sync:(Model.Recv "m_a") "S0" "S1";
        edge ~sync:(Model.Recv "m_a") "S1" "S2";
        edge ~sync:(Model.Send "c_b") "S2" "S3" ]
  in
  let env =
    Model.automaton ~name:"Env" ~initial:"E0"
      [ loc ~inv:[ Clockcons.le "e" 0 ] "E0";
        loc ~inv:[ Clockcons.le "e" 2 ] "E1";
        loc "E2"; loc "E3" ]
      [ edge ~sync:(Model.Send "m_a") ~resets:[ "e" ] "E0" "E1";
        edge ~guard:[ Clockcons.eq_ "e" 2 ] ~sync:(Model.Send "m_a") "E1" "E2";
        edge ~sync:(Model.Recv "c_b") "E2" "E3" ]
  in
  let net =
    Model.network ~name:"burst" ~clocks:[ "e" ] ~vars:[]
      ~channels:[ ("m_a", Model.Broadcast); ("c_b", Model.Broadcast) ]
      [ soft; env ]
  in
  Transform.Pim.make net ~software:"Soft" ~environment:"Env"

let statuses results =
  List.map
    (fun (r : Analysis.Constraints.result) ->
      (r.Analysis.Constraints.c_id,
       match r.Analysis.Constraints.c_status with
       | Analysis.Constraints.Satisfied -> "sat"
       | Analysis.Constraints.Violated _ -> "violated"
       | Analysis.Constraints.Unknown _ -> "unknown"))
    results

let test_constraint2_violated_then_repaired () =
  let small =
    { (scheme ~input_comm:(Scheme.Buffer (1, Scheme.Read_all))
         ~input:(Scheme.interrupt_input (Scheme.delay 1 1))
         ~invocation:(Scheme.Periodic 20) ())
      with Scheme.is_exec = { Scheme.wcet_min = 1; wcet_max = 5 } }
  in
  let psm = Transform.psm_of_pim (burst_pim ()) small in
  let results = Analysis.Constraints.check_all psm in
  Alcotest.(check (list (pair int string))) "1-slot buffer overflows"
    [ (1, "sat"); (2, "violated"); (3, "sat"); (4, "sat") ]
    (statuses results);
  Alcotest.(check bool) "not all satisfied" false
    (Analysis.Constraints.all_satisfied results);
  let big = { small with Scheme.is_input_comm = Scheme.Buffer (3, Scheme.Read_all) } in
  let psm2 = Transform.psm_of_pim (burst_pim ()) big in
  Alcotest.(check bool) "3-slot buffer is safe" true
    (Analysis.Constraints.all_satisfied (Analysis.Constraints.check_all psm2))

let test_constraint1_violated_by_slow_device () =
  (* processing 5..8 but pulses 2 apart: the second interrupt hits a busy
     device -> missed-input flag reachable *)
  let slow =
    scheme ~input:(Scheme.interrupt_input (Scheme.delay 5 8))
      ~input_comm:(Scheme.Buffer (3, Scheme.Read_all)) ()
  in
  let psm = Transform.psm_of_pim (burst_pim ()) slow in
  let results = Analysis.Constraints.check_all psm in
  Alcotest.(check (pair int string)) "constraint 1 violated" (1, "violated")
    (List.hd (statuses results))

let test_constraint4_unknown_on_internal_transitions () =
  let soft =
    Model.automaton ~name:"Soft" ~initial:"S0"
      [ loc "S0"; loc "S1"; loc "S2" ]
      [ edge ~sync:(Model.Recv "m_a") "S0" "S1";
        edge "S1" "S2" ]  (* an internal transition *)
  in
  let env =
    Model.automaton ~name:"Env" ~initial:"E0"
      [ loc "E0"; loc "E1" ]
      [ edge ~sync:(Model.Send "m_a") "E0" "E1" ]
  in
  let net =
    Model.network ~name:"tau" ~clocks:[] ~vars:[]
      ~channels:[ ("m_a", Model.Broadcast); ("c_b", Model.Broadcast) ]
      [ soft; env ]
  in
  (* c_b unused by the software: cover it in the scheme anyway *)
  let pim = Transform.Pim.make net ~software:"Soft" ~environment:"Env" in
  let psm = Transform.psm_of_pim pim (scheme ()) in
  let results = Analysis.Constraints.check_all psm in
  Alcotest.(check (pair int string)) "constraint 4 inconclusive" (4, "unknown")
    (List.nth (statuses results) 3)

(* --- queries -------------------------------------------------------------- *)

let test_satisfies_response_bound () =
  let worker =
    Model.automaton ~name:"W" ~initial:"W0"
      [ loc "W0"; loc ~inv:[ Clockcons.le "w" 8 ] "W1"; loc "W2" ]
      [ edge ~sync:(Model.Recv "req") ~resets:[ "w" ] "W0" "W1";
        edge ~guard:[ Clockcons.ge "w" 2 ] ~sync:(Model.Send "resp") "W1" "W2" ]
  in
  let env =
    Model.automaton ~name:"E" ~initial:"E0"
      [ loc "E0"; loc "E1"; loc "E2" ]
      [ edge ~sync:(Model.Send "req") "E0" "E1";
        edge ~sync:(Model.Recv "resp") "E1" "E2" ]
  in
  let net =
    Model.network ~name:"rr" ~clocks:[ "w" ] ~vars:[]
      ~channels:[ ("req", Model.Broadcast); ("resp", Model.Broadcast) ]
      [ worker; env ]
  in
  Alcotest.(check bool) "P(8) holds" true
    (Psv.verify_response net ~trigger:"req"
       ~response:"resp" ~bound:8
     = Mc.Query.Holds);
  (match
     Psv.verify_response net ~trigger:"req"
       ~response:"resp" ~bound:7
   with
   | Mc.Query.Fails _ -> ()
   | Mc.Query.Holds | Mc.Query.Sup _ | Mc.Query.Unknown _ ->
     Alcotest.fail "P(7) should be refuted");
  (* never-triggered requirement is vacuously true *)
  Alcotest.(check bool) "vacuous" true
    (Psv.verify_response net ~trigger:"ghost"
       ~response:"resp" ~bound:1
     = Mc.Query.Holds)

let suite =
  [ Alcotest.test_case "Lemma 1: interrupt + read-all" `Quick
      test_input_delay_interrupt_readall;
    Alcotest.test_case "Lemma 1: polling" `Quick test_input_delay_polling;
    Alcotest.test_case "Lemma 1: read-one" `Quick test_input_delay_read_one;
    Alcotest.test_case "Lemma 1: aperiodic" `Quick test_input_delay_aperiodic;
    Alcotest.test_case "Lemma 1: output delay" `Quick test_output_delay;
    Alcotest.test_case "Lemma 2" `Quick test_lemma2;
    Alcotest.test_case "constraint 1 analytic side-condition" `Quick
      test_detects_all_inputs;
    Alcotest.test_case "constraint 2 violated then repaired" `Quick
      test_constraint2_violated_then_repaired;
    Alcotest.test_case "constraint 1 violated by slow device" `Quick
      test_constraint1_violated_by_slow_device;
    Alcotest.test_case "constraint 4 unknown on internal transitions" `Quick
      test_constraint4_unknown_on_internal_transitions;
    Alcotest.test_case "response-bound queries" `Quick
      test_satisfies_response_bound ]
