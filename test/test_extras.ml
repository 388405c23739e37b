(* Tests for the supporting features: stimulus patterns and the
   supplemental GPCA requirements. *)

open Ta

let loc = Model.location
let edge = Model.edge

(* --- stimulus patterns --------------------------------------------------- *)

let test_stimulus_periodic () =
  Alcotest.(check (list (pair (float 0.001) string)))
    "periodic"
    [ (5.0, "a"); (15.0, "a"); (25.0, "a") ]
    (Sim.Stimulus.periodic ~start:5.0 ~every:10.0 ~n:3 "a")

let test_stimulus_burst () =
  Alcotest.(check (list (pair (float 0.001) string)))
    "burst"
    [ (100.0, "a"); (104.0, "a"); (108.0, "a") ]
    (Sim.Stimulus.burst ~at:100.0 ~gap:4.0 ~n:3 "a")

let test_stimulus_merge_sorted () =
  let merged =
    Sim.Stimulus.merge
      [ Sim.Stimulus.single ~at:50.0 "b";
        Sim.Stimulus.periodic ~every:30.0 ~n:3 "a" ]
  in
  let times = List.map fst merged in
  Alcotest.(check (list (float 0.001))) "sorted" [ 0.0; 30.0; 50.0; 60.0 ]
    times

let test_stimulus_jittered_in_range () =
  let rng = Sim.Rng.create 5 in
  let events =
    Sim.Stimulus.jittered rng ~start:10.0 ~every:20.0 ~jitter:5.0 ~n:50 "a"
  in
  List.iteri
    (fun i (at, _) ->
      let base = 10.0 +. (float_of_int i *. 20.0) in
      Alcotest.(check bool) "within jitter" true
        (at >= base && at < base +. 5.0))
    events

(* --- supplemental GPCA requirements ---------------------------------------- *)

(* The supplemental rows' sups (PIM, analytic and full-variant PSM) are
   pinned by the reproduction's golden file, test/reproduce.expected. *)

let test_full_variant_pause_path () =
  let net = Gpca.Model.network ~variant:Gpca.Model.Full Gpca.Params.default in
  let t = Mc.Explorer.make net in
  let paused = Mc.Explorer.at t ~aut:"Pump" ~loc:"Paused" in
  Alcotest.(check bool) "pause reachable" true
    ((Mc.Explorer.reachable t paused).Mc.Explorer.r_trace <> None);
  (* a bolus can restart after a pause *)
  let restarted st =
    Mc.Explorer.at t ~aut:"Pump" ~loc:"Infusing" st
    && Mc.Explorer.at t ~aut:"Patient" ~loc:"Observing" st
  in
  Alcotest.(check bool) "infusion restartable" true
    ((Mc.Explorer.reachable t restarted).Mc.Explorer.r_trace <> None)

let suite =
  [ Alcotest.test_case "stimulus: periodic" `Quick test_stimulus_periodic;
    Alcotest.test_case "stimulus: burst" `Quick test_stimulus_burst;
    Alcotest.test_case "stimulus: merge sorts" `Quick
      test_stimulus_merge_sorted;
    Alcotest.test_case "stimulus: jitter in range" `Quick
      test_stimulus_jittered_in_range;
    Alcotest.test_case "pause path behavior" `Quick
      test_full_variant_pause_path ]
