(* Tests of the simulator's fault-injection mode.  Two invariants matter:
   a [None] fault profile changes nothing (draw-for-draw determinism),
   and no profile — however degraded — can push a measured Input-Delay
   below the scheme's analytic lower bound (jitter only stretches). *)

let params = Gpca.Params.default
let scheme = Gpca.Params.scheme params

let config ~request_time =
  Gpca.Experiment.scenario_config params ~request_time

let count_events log pred = Sim.Measure.count log pred

let test_no_faults_identical () =
  let config = config ~request_time:123.0 in
  let plain = Sim.Engine.run ~seed:3 config in
  let zeroed =
    Sim.Engine.run ~seed:3
      ~faults:(Sim.Engine.faults ~jitter:0.0 ~drop:0.0 ~dup:0.0 ())
      config
  in
  Alcotest.(check int) "same length" (List.length plain) (List.length zeroed);
  Alcotest.(check bool) "a zeroed profile is draw-for-draw identical" true
    (plain = zeroed)

let test_fault_determinism () =
  let config = config ~request_time:200.0 in
  let faults = Sim.Engine.faults ~jitter:0.7 ~drop:0.2 ~dup:0.2 () in
  let a = Sim.Engine.run ~seed:5 ~faults config in
  let b = Sim.Engine.run ~seed:5 ~faults config in
  Alcotest.(check bool) "same seeds, same degraded log" true (a = b)

let test_drop_all () =
  let config = config ~request_time:150.0 in
  let log =
    Sim.Engine.run ~seed:4 ~faults:(Sim.Engine.faults ~drop:1.0 ()) config
  in
  Alcotest.(check int) "nothing is ever read" 0
    (count_events log (function
       | Sim.Engine.Input_read _ -> true
       | _ -> false));
  Alcotest.(check bool) "every signal is recorded lost" true
    (count_events log (function
       | Sim.Engine.Input_lost _ -> true
       | _ -> false)
     = count_events log (function
         | Sim.Engine.Env_signal _ -> true
         | _ -> false))

(* The fault stream follows the run's seed: one profile shared by many
   single-stimulus scenarios must not make them all take the same
   drop decision. *)
let test_fault_stream_per_run () =
  let faults = Sim.Engine.faults ~drop:0.5 () in
  let lost = ref 0 in
  for i = 0 to 199 do
    let config = config ~request_time:(100.0 +. float_of_int (7 * i)) in
    let log = Sim.Engine.run ~seed:(1000 * (i + 1)) ~faults config in
    if
      count_events log (function
        | Sim.Engine.Input_lost _ -> true
        | _ -> false)
      > 0
    then incr lost
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some but not all of 200 scenarios lose their input (%d)"
       !lost)
    true
    (!lost > 0 && !lost < 200)

let test_builder_validates () =
  let invalid f =
    match f () with
    | _ -> Alcotest.fail "invalid fault profile accepted"
    | exception Invalid_argument _ -> ()
  in
  invalid (fun () -> Sim.Engine.faults ~jitter:(-0.1) ());
  invalid (fun () -> Sim.Engine.faults ~drop:1.5 ());
  invalid (fun () -> Sim.Engine.faults ~dup:(-0.2) ())

(* The property behind the robustness bench: fault-injected input delays
   never undercut Lemma 1's analytic lower bound, because jitter only
   ever stretches a device delay and drop/dup act before the device. *)
let prop_input_delay_lower_bound =
  let floor_in =
    float_of_int (Analysis.Bounds.input_delay_min scheme Gpca.Model.bolus_req)
  in
  QCheck.Test.make ~count:60
    ~name:"fault-injected input delays respect the analytic lower bound"
    QCheck.(
      quad (float_bound_inclusive 1.0) (float_bound_inclusive 0.5)
        (float_bound_inclusive 0.5) small_nat)
    (fun (jitter, drop, dup, seed) ->
      let faults = Sim.Engine.faults ~jitter ~drop ~dup () in
      let log =
        Sim.Engine.run ~seed:(seed + 1) ~faults
          (config ~request_time:(100.0 +. float_of_int (seed mod 50)))
      in
      let samples =
        Sim.Measure.samples log ~trigger:Gpca.Model.bolus_req
          ~response:Gpca.Model.start_infusion
      in
      List.for_all
        (fun s ->
          match Sim.Measure.input_delay s with
          | Some d -> d >= floor_in
          | None -> true)
        samples)

let suite =
  [ Alcotest.test_case "no faults is byte-identical" `Quick
      test_no_faults_identical;
    Alcotest.test_case "fault stream is deterministic" `Quick
      test_fault_determinism;
    Alcotest.test_case "drop probability 1 loses every input" `Quick
      test_drop_all;
    Alcotest.test_case "each run seed draws its own faults" `Quick
      test_fault_stream_per_run;
    Alcotest.test_case "builder validates its arguments" `Quick
      test_builder_validates;
    QCheck_alcotest.to_alcotest prop_input_delay_lower_bound ]
