(* Tests for timed witness traces: the witness chain replayed with an
   absolute-time clock, and what the search reports when there is no
   witness. *)

open Ta

let loc = Model.location
let edge = Model.edge

let test_timed_trace_simple () =
  (* A -> B at x in [3, 5]; then B -> C at y == 2 after a reset. *)
  let a =
    Model.automaton ~name:"P" ~initial:"A"
      [ loc ~inv:[ Clockcons.le "x" 5 ] "A";
        loc ~inv:[ Clockcons.le "y" 2 ] "B";
        loc "C" ]
      [ edge ~guard:[ Clockcons.ge "x" 3 ] ~resets:[ "y" ] "A" "B";
        edge ~guard:[ Clockcons.eq_ "y" 2 ] "B" "C" ]
  in
  let net =
    Model.network ~name:"tt" ~clocks:[ "x"; "y" ] ~vars:[] ~channels:[] [ a ]
  in
  let t = Mc.Explorer.make net in
  match Mc.Explorer.timed_trace t (Mc.Explorer.at t ~aut:"P" ~loc:"C") with
  | Ok None | Error _ -> Alcotest.fail "C should be reachable"
  | Ok (Some [ step1; step2 ]) ->
    Alcotest.(check (pair int bool)) "step 1 earliest" (3, false)
      step1.Mc.Explorer.td_earliest;
    Alcotest.(check (option (pair int bool))) "step 1 latest" (Some (5, false))
      step1.Mc.Explorer.td_latest;
    (* step 2 fires exactly 2 after step 1: absolute time in [5, 7] *)
    Alcotest.(check (pair int bool)) "step 2 earliest" (5, false)
      step2.Mc.Explorer.td_earliest;
    Alcotest.(check (option (pair int bool))) "step 2 latest" (Some (7, false))
      step2.Mc.Explorer.td_latest
  | Ok (Some steps) ->
    Alcotest.failf "expected 2 steps, got %d" (List.length steps)

let test_timed_trace_unreachable () =
  let a =
    Model.automaton ~name:"P" ~initial:"A" [ loc "A"; loc "B" ] []
  in
  let net =
    Model.network ~name:"un" ~clocks:[] ~vars:[] ~channels:[] [ a ]
  in
  let t = Mc.Explorer.make net in
  Alcotest.(check bool) "no trace" true
    (Mc.Explorer.timed_trace t (Mc.Explorer.at t ~aut:"P" ~loc:"B") = Ok None)

let test_timed_trace_gpca () =
  (* The infusion start happens no earlier than prep_min and, along the
     earliest witness, within the PIM bound. *)
  let net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only Gpca.Params.default in
  let t = Mc.Explorer.make net in
  match
    Mc.Explorer.timed_trace t (Mc.Explorer.at t ~aut:"Pump" ~loc:"Infusing")
  with
  | Ok None | Error _ -> Alcotest.fail "Infusing unreachable"
  | Ok (Some steps) ->
    let last = List.nth steps (List.length steps - 1) in
    let lo, _ = last.Mc.Explorer.td_earliest in
    Alcotest.(check bool) "infusion no earlier than prep_min" true (lo >= 250)

(* Replayed timed traces must be consistent: earliest times are
   monotonically non-decreasing along the chain. *)
let prop_timed_trace_monotonic =
  QCheck.Test.make ~name:"timed traces are time-monotonic" ~count:100
    Gen.arb_network
    (fun net ->
      let t = Mc.Explorer.make net in
      (* target: any location vector other than the initial one *)
      let initial_locs =
        Array.of_list
          (List.map
             (fun (a : Ta.Model.automaton) -> a.Ta.Model.aut_initial)
             net.Ta.Model.net_automata)
      in
      let comp = Mc.Explorer.compiled t in
      ignore comp;
      let moved st =
        let names =
          Array.map
            (fun (a : Ta.Compiled.cautomaton) -> a.Ta.Compiled.ca_name)
            (Mc.Explorer.compiled t).Ta.Compiled.c_automata
        in
        ignore names;
        Array.exists (fun x -> x)
          (Array.mapi
             (fun i li ->
               let a = (Mc.Explorer.compiled t).Ta.Compiled.c_automata.(i) in
               a.Ta.Compiled.ca_locs.(li).Ta.Compiled.cl_name
               <> initial_locs.(i))
             st.Mc.Explorer.st_locs)
      in
      match Mc.Explorer.timed_trace t moved with
      | Ok None -> true  (* nothing moves: vacuously fine *)
      | Error _ -> false
      | Ok (Some steps) ->
        let rec monotonic last = function
          | [] -> true
          | (s : Mc.Explorer.timed_step) :: rest ->
            let lo, _ = s.Mc.Explorer.td_earliest in
            lo >= last && monotonic lo rest
        in
        monotonic 0 steps)

(* The exact replay of a witness does not extrapolate, so its bounds
   grow by up to one constant a step: at the largest clock constant they
   must still come out exact.  A fires at [max_constant], and B a further
   [max_constant] later. *)
let test_timed_trace_largest_constant () =
  let at = Clockcons.max_constant in
  let a =
    Model.automaton ~name:"P" ~initial:"A"
      [ loc ~inv:[ Clockcons.le "x" at ] "A";
        loc ~inv:[ Clockcons.le "y" at ] "B";
        loc "C" ]
      [ edge ~guard:[ Clockcons.ge "x" at ] ~resets:[ "y" ] "A" "B";
        edge ~guard:[ Clockcons.ge "y" at ] "B" "C" ]
  in
  let net =
    Model.network ~name:"big" ~clocks:[ "x"; "y" ] ~vars:[] ~channels:[] [ a ]
  in
  let t = Mc.Explorer.make net in
  match Mc.Explorer.timed_trace t (Mc.Explorer.at t ~aut:"P" ~loc:"C") with
  | Ok (Some [ step1; step2 ]) ->
    let exactly v = ((v, false), Some (v, false)) in
    let times (s : Mc.Explorer.timed_step) =
      (s.Mc.Explorer.td_earliest, s.Mc.Explorer.td_latest)
    in
    let interval = Alcotest.(pair (pair int bool) (option (pair int bool))) in
    Alcotest.check interval "step 1" (exactly at) (times step1);
    Alcotest.check interval "step 2" (exactly (2 * at)) (times step2)
  | Ok (Some steps) ->
    Alcotest.failf "expected 2 steps, got %d" (List.length steps)
  | Ok None | Error _ -> Alcotest.fail "C should be reachable"

(* A state limit that stops the search before the target is reached
   leaves reachability unknown: the result is the interruption, not
   "unreachable".  The target C is two steps deep, and a limit of one
   visited state expands only the initial state. *)
let test_timed_trace_interrupted () =
  let a =
    Model.automaton ~name:"P" ~initial:"A" [ loc "A"; loc "B"; loc "C" ]
      [ edge "A" "B"; edge "B" "C" ]
  in
  let net =
    Model.network ~name:"deep" ~clocks:[] ~vars:[] ~channels:[] [ a ]
  in
  let target t = Mc.Explorer.at t ~aut:"P" ~loc:"C" in
  let t = Mc.Explorer.make ~limit:1 net in
  (match Mc.Explorer.timed_trace t (target t) with
   | Error (Mc.Runctl.State_budget 1) -> ()
   | Error r -> Alcotest.failf "wrong reason: %a" Mc.Runctl.pp_reason r
   | Ok None -> Alcotest.fail "an interrupted search reported unreachable"
   | Ok (Some _) -> Alcotest.fail "a witness past the state limit");
  let t = Mc.Explorer.make net in
  match Mc.Explorer.timed_trace t (target t) with
  | Ok (Some steps) ->
    Alcotest.(check int) "two steps without the limit" 2 (List.length steps)
  | Ok None | Error _ -> Alcotest.fail "C should be reachable"

let suite =
  [ Alcotest.test_case "timed trace intervals" `Quick test_timed_trace_simple;
    Alcotest.test_case "timed trace of unreachable target" `Quick
      test_timed_trace_unreachable;
    Alcotest.test_case "timed trace interrupted by the state limit" `Quick
      test_timed_trace_interrupted;
    Alcotest.test_case "timed trace at the largest constant" `Quick
      test_timed_trace_largest_constant;
    Alcotest.test_case "timed trace on GPCA" `Quick test_timed_trace_gpca;
    QCheck_alcotest.to_alcotest prop_timed_trace_monotonic ]
