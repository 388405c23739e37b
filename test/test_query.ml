(* Tests for the query language: parsing, evaluation, and error cases. *)

open Ta

let loc = Model.location
let edge = Model.edge

let net () =
  let worker =
    Model.automaton ~name:"W" ~initial:"Idle"
      [ loc "Idle"; loc ~inv:[ Clockcons.le "w" 8 ] "Busy"; loc "Done" ]
      [ edge ~sync:(Model.Recv "req") ~resets:[ "w" ]
          ~updates:[ ("jobs", Expr.(var "jobs" + int 1)) ]
          "Idle" "Busy";
        edge ~guard:[ Clockcons.ge "w" 2 ] ~sync:(Model.Send "resp") "Busy"
          "Done" ]
  in
  let env =
    Model.automaton ~name:"E" ~initial:"E0"
      [ loc "E0"; loc "E1"; loc "E2" ]
      [ edge ~sync:(Model.Send "req") "E0" "E1";
        edge ~sync:(Model.Recv "resp") "E1" "E2" ]
  in
  Model.network ~name:"q" ~clocks:[ "w" ]
    ~vars:[ ("jobs", Model.int_var ~min:0 ~max:5 0) ]
    ~channels:[ ("req", Model.Broadcast); ("resp", Model.Broadcast) ]
    [ worker; env ]

let run text =
  match Mc.Query.parse text with
  | Error msg -> Alcotest.failf "parse of %S failed: %s" text msg
  | Ok q -> (Mc.Query.eval (net ()) q).Mc.Query.res_outcome

let check_holds text expected =
  let holds = match run text with Mc.Query.Holds -> true | _ -> false in
  Alcotest.(check bool) text expected holds

let test_exists () =
  check_holds "E<> W.Done" true;
  check_holds "E<> W.Idle and jobs == 1" false;
  check_holds "E<> jobs >= 1" true;
  check_holds "E<> jobs >= 2" false

let test_always () =
  check_holds "A[] jobs <= 1" true;
  check_holds "A[] not W.Done" false;
  check_holds "A[] (W.Idle or W.Busy) or W.Done" true

let test_counterexample_trace () =
  match run "A[] not W.Done" with
  | Mc.Query.Fails (Some trace) ->
    Alcotest.(check bool) "trace non-empty" true (trace <> [])
  | _ -> Alcotest.fail "expected a counterexample"

let test_connective_structure () =
  (* 'and' binds tighter than 'or'; 'not' tighter than 'and'. *)
  match Mc.Query.parse "E<> not W.Done and jobs == 0 or W.Idle" with
  | Ok (Mc.Query.Exists_eventually (Mc.Query.Or (Mc.Query.And (Mc.Query.Not _, _), _))) -> ()
  | Ok _ -> Alcotest.fail "unexpected parse structure"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_sup () =
  match run "sup: req -> resp ceiling 100" with
  | Mc.Query.Sup (Mc.Explorer.Sup (8, false)) -> ()
  | r -> Alcotest.failf "expected sup <= 8, got %a" Mc.Query.pp_outcome r

let test_bounded () =
  check_holds "bounded: req -> resp within 8" true;
  (match run "bounded: req -> resp within 7" with
   | Mc.Query.Fails None -> ()
   | r -> Alcotest.failf "expected failure, got %a" Mc.Query.pp_outcome r)

let test_parse_errors () =
  let bad text =
    match Mc.Query.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "bogus query %S accepted" text
  in
  bad "";
  bad "E<>";
  bad "sup: req resp";
  bad "bounded: req -> resp";
  bad "E<> W .";
  bad "X[] true"

(* Sup queries whose ceilings widen the subsumption keys' lanes (9000:
   three 17-bit lanes per word where table1's constants fit four 15-bit
   ones; 70000: three 20-bit lanes), on the PSM as [psv export --psm] writes it and [psv
   check] reads it back.  The sups and the visited/stored counts are
   pinned from the search with unpacked keys: the lane layout must
   change neither. *)
let test_wide_lane_pins () =
  let text =
    Xta.Print.to_string
      (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only Gpca.Params.default)
        .Transform.psm_net
  in
  let net =
    match Xta.Parse.network text with
    | Ok net -> net
    | Error msg -> Alcotest.failf "exported PSM does not parse: %s" msg
  in
  List.iter
    (fun (text, sup, visited, stored) ->
      match Mc.Query.parse text with
      | Error msg -> Alcotest.failf "parse of %S failed: %s" text msg
      | Ok q ->
        let r = Mc.Query.eval net q in
        (match r.Mc.Query.res_outcome with
         | Mc.Query.Sup (Mc.Explorer.Sup (v, false)) when v = sup -> ()
         | o -> Alcotest.failf "%s: expected sup <= %d, got %a" text sup
                  Mc.Query.pp_outcome o);
        let st = r.Mc.Query.res_stats in
        Alcotest.(check (pair int int)) (text ^ ": visited, stored")
          (visited, stored)
          (st.Mc.Explorer.visited, st.Mc.Explorer.stored))
    [ ("sup: m_BolusReq -> c_StartInfusion ceiling 9000", 1430, 21024, 22166);
      ("sup: m_BolusReq -> i_BolusReq ceiling 70000", 490, 8638, 8882) ]

(* [Bounded_response] is the [Sup_delay] search with ceiling = bound,
   decided by [bounded_of_sup]: the same outcome and the same statistics,
   for a bound below the sup, at it and above it, and under a state
   limit that cuts each search in half. *)
let test_bounded_is_sup () =
  let cases =
    ("railroad-psm", Test_runctl.railroad_psm (), "m_Train", "c_GateDown", 320)
    :: List.map
         (fun shape ->
           let i = Diff.Gen.instance ~seed:20 ~index:3 shape in
           ( i.Diff.Gen.id, i.Diff.Gen.net, i.Diff.Gen.trigger,
             i.Diff.Gen.response, i.Diff.Gen.ceiling ))
         Diff.Gen.all_shapes
  in
  List.iter
    (fun (name, net, trigger, response, ceiling) ->
      let sup_query ceiling = Mc.Query.Sup_delay { trigger; response; ceiling } in
      let sup =
        match (Mc.Query.eval net (sup_query ceiling)).Mc.Query.res_outcome with
        | Mc.Query.Sup (Mc.Explorer.Sup (v, _)) -> v
        | o -> Alcotest.failf "%s: expected a finite sup, got %a" name
                 Mc.Query.pp_outcome o
      in
      let agree ?limit bound =
        let label =
          Printf.sprintf "%s, bound %d%s" name bound
            (match limit with
             | Some l -> Printf.sprintf ", limit %d" l
             | None -> "")
        in
        let via_sup = Mc.Query.eval ?limit net (sup_query bound) in
        let bounded =
          Mc.Query.eval ?limit net
            (Mc.Query.Bounded_response { trigger; response; bound })
        in
        let expected = Mc.Query.bounded_of_sup via_sup.Mc.Query.res_outcome ~bound in
        if bounded.Mc.Query.res_outcome <> expected then
          Alcotest.failf "%s: bounded %a, sup against the bound %a" label
            Mc.Query.pp_outcome bounded.Mc.Query.res_outcome
            Mc.Query.pp_outcome expected;
        if bounded.Mc.Query.res_stats <> via_sup.Mc.Query.res_stats then
          Alcotest.failf "%s: statistics differ" label;
        via_sup
      in
      List.iter
        (fun bound ->
          let full = agree bound in
          let limit =
            max 1 (full.Mc.Query.res_stats.Mc.Explorer.visited / 2)
          in
          match (agree ~limit bound).Mc.Query.res_outcome with
          | Mc.Query.Unknown _ -> ()
          | o -> Alcotest.failf "%s, bound %d: limit %d did not interrupt (%a)"
                   name bound limit Mc.Query.pp_outcome o)
        [ sup - 1; sup; sup + 1 ])
    cases

(* [psv check]'s table prints each row's outcome with [pp_outcome], and
   the examples and bench driver print verdicts with it, so its words
   are part of the output. *)
let test_pp_outcome_text () =
  List.iter
    (fun (outcome, want) ->
      Alcotest.(check string) want want (Fmt.str "%a" Mc.Query.pp_outcome outcome))
    [ (Mc.Query.Holds, "holds");
      (Mc.Query.Fails None, "FAILS");
      (Mc.Query.Fails (Some [ "a"; "b"; "c" ]), "FAILS (counterexample of 3 steps)");
      (Mc.Query.Sup Mc.Explorer.Sup_unreached, "sup = unreached");
      (Mc.Query.Sup (Mc.Explorer.Sup (440, false)), "sup = <= 440");
      (Mc.Query.Sup (Mc.Explorer.Sup (7, true)), "sup = < 7");
      (Mc.Query.Sup (Mc.Explorer.Sup_exceeds 2000), "sup = > 2000 (ceiling)");
      ( Mc.Query.Unknown (Mc.Runctl.Time_budget 1.5, None),
        "UNKNOWN (time budget (1.5s) exhausted)" );
      ( Mc.Query.Unknown
          (Mc.Runctl.State_budget 1000, Some (Mc.Explorer.Sup (7, true))),
        "UNKNOWN (state budget (1000) exhausted; sup so far < 7)" );
      ( Mc.Query.Unknown (Mc.Runctl.Memory_budget (64 * 1024 * 1024), None),
        "UNKNOWN (memory budget (64 MB) exhausted)" );
      (Mc.Query.Unknown (Mc.Runctl.Cancelled, None), "UNKNOWN (cancelled)") ]

let suite =
  [ Alcotest.test_case "E<> queries" `Quick test_exists;
    Alcotest.test_case "A[] queries" `Quick test_always;
    Alcotest.test_case "counterexample trace" `Quick test_counterexample_trace;
    Alcotest.test_case "connective precedence" `Quick
      test_connective_structure;
    Alcotest.test_case "sup query" `Quick test_sup;
    Alcotest.test_case "bounded query" `Quick test_bounded;
    Alcotest.test_case "bounded = sup against the bound" `Quick
      test_bounded_is_sup;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "wide-lane sup pins" `Quick test_wide_lane_pins;
    Alcotest.test_case "pp_outcome text" `Quick test_pp_outcome_text ]
