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

(* A number too long for an int is a parse error, not an escaping
   exception; so is a ceiling or bound past the largest clock constant,
   which would overflow the zone encoding. *)
let test_parse_range () =
  let error text expected =
    Alcotest.(check (result reject string)) text (Error expected)
      (Mc.Query.parse text)
  in
  error "sup: a -> b ceiling 99999999999999999999" "number out of range";
  error "E<> n == 99999999999999999999" "number out of range";
  let at = Ta.Clockcons.max_constant in
  let past =
    Printf.sprintf "%d exceeds the largest supported clock constant %d"
      (at + 1) at
  in
  error (Printf.sprintf "sup: a -> b ceiling %d" (at + 1)) ("ceiling " ^ past);
  error (Printf.sprintf "bounded: a -> b within %d" (at + 1)) ("bound " ^ past);
  Alcotest.(check bool) "the maximum itself is accepted" true
    (Mc.Query.parse (Printf.sprintf "sup: a -> b ceiling %d" at)
     = Ok (Mc.Query.Sup_delay { trigger = "a"; response = "b"; ceiling = at }))

(* Delays at the largest clock constant come out exact.  The worker may
   stay busy up to [max_constant], so that is the sup; a bound at it
   holds and one below it fails.  Constants near [2^61] overflowed the
   zone encoding and such answers went wrong. *)
let test_largest_constant () =
  let at = Clockcons.max_constant in
  let worker =
    Model.automaton ~name:"W" ~initial:"Idle"
      [ loc "Idle"; loc ~inv:[ Clockcons.le "w" at ] "Busy"; loc "Done" ]
      [ edge ~sync:(Model.Recv "req") ~resets:[ "w" ] "Idle" "Busy";
        edge ~guard:[ Clockcons.ge "w" 2 ] ~sync:(Model.Send "resp") "Busy"
          "Done" ]
  in
  let env =
    Model.automaton ~name:"E" ~initial:"E0"
      [ loc "E0"; loc "E1"; loc "E2" ]
      [ edge ~sync:(Model.Send "req") "E0" "E1";
        edge ~sync:(Model.Recv "resp") "E1" "E2" ]
  in
  let net =
    Model.network ~name:"big" ~clocks:[ "w" ] ~vars:[]
      ~channels:[ ("req", Model.Broadcast); ("resp", Model.Broadcast) ]
      [ worker; env ]
  in
  let eval q = (Mc.Query.eval net q).Mc.Query.res_outcome in
  (match
     eval (Mc.Query.Sup_delay { trigger = "req"; response = "resp"; ceiling = at })
   with
   | Mc.Query.Sup (Mc.Explorer.Sup (v, false)) when v = at -> ()
   | o -> Alcotest.failf "expected sup <= %d, got %a" at Mc.Query.pp_outcome o);
  let bounded bound =
    eval (Mc.Query.Bounded_response { trigger = "req"; response = "resp"; bound })
  in
  Alcotest.(check bool) "bound at the maximum holds" true
    (bounded at = Mc.Query.Holds);
  Alcotest.(check bool) "bound below the maximum fails" true
    (match bounded (at - 1) with Mc.Query.Fails _ -> true | _ -> false)

(* The PSM's M-C sup under the largest ceiling the parser accepts is the
   paper's 1430, as under smaller ceilings; under a ceiling of [2^61]
   the search reported the sup past its ceiling. *)
let test_psm_largest_ceiling () =
  let net =
    (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only Gpca.Params.default)
      .Transform.psm_net
  in
  let text =
    Printf.sprintf "sup: m_BolusReq -> c_StartInfusion ceiling %d"
      Clockcons.max_constant
  in
  match Mc.Query.parse text with
  | Error msg -> Alcotest.failf "parse of %S failed: %s" text msg
  | Ok q -> (
    match (Mc.Query.eval net q).Mc.Query.res_outcome with
    | Mc.Query.Sup (Mc.Explorer.Sup (1430, false)) -> ()
    | o -> Alcotest.failf "expected sup <= 1430, got %a" Mc.Query.pp_outcome o)

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
   decided by [bounded_of_sup] and stopped at the first stored state
   whose running sup refutes the bound.  Against the full sup search
   under the same [limit]: the same outcome; the same statistics unless
   the bound is refuted; and on a refuted bound no more visited or
   stored states than the full search, the stored count ending exactly
   at the first stored state whose running sup passes the bound.  The
   full search's running sups are read through [until], which is asked
   after every stored state.  [Ok] carries the full search's result. *)
let bounded_vs_sup ?limit ~net ~trigger ~response bound =
  let label =
    Printf.sprintf "bound %d%s" bound
      (match limit with Some l -> Printf.sprintf ", limit %d" l | None -> "")
  in
  let sups = ref [] in
  let observe s =
    sups := s :: !sups;
    false
  in
  let via_sup =
    Mc.Query.result_of_sup
      (Mc.Query.max_delay ?limit ~until:observe net ~trigger ~response
         ~ceiling:bound)
  in
  let bounded =
    Mc.Query.eval ?limit net
      (Mc.Query.Bounded_response { trigger; response; bound })
  in
  let expected = Mc.Query.bounded_of_sup via_sup.Mc.Query.res_outcome ~bound in
  let full = via_sup.Mc.Query.res_stats and got = bounded.Mc.Query.res_stats in
  let pp_stats (s : Mc.Explorer.stats) =
    Printf.sprintf "visited %d stored %d" s.Mc.Explorer.visited
      s.Mc.Explorer.stored
  in
  let refuting s =
    Mc.Query.bounded_of_sup (Mc.Query.Sup s) ~bound <> Mc.Query.Holds
  in
  (* 1-based position of the first stored state whose running sup
     refutes the bound *)
  let first_refuting =
    let rec go k = function
      | [] -> None
      | s :: rest -> if refuting s then Some k else go (k + 1) rest
    in
    go 1 (List.rev !sups)
  in
  if bounded.Mc.Query.res_outcome <> expected then
    Error
      (Fmt.str "%s: bounded %a, sup against the bound %a" label
         Mc.Query.pp_outcome bounded.Mc.Query.res_outcome
         Mc.Query.pp_outcome expected)
  else
    match expected with
    | Mc.Query.Fails _ ->
      if got.Mc.Explorer.visited > full.Mc.Explorer.visited
         || got.Mc.Explorer.stored > full.Mc.Explorer.stored
      then
        Error
          (Printf.sprintf "%s: refuted search %s beyond the full search's %s"
             label (pp_stats got) (pp_stats full))
      else if first_refuting <> Some got.Mc.Explorer.stored then
        Error
          (Printf.sprintf
             "%s: stopped at stored state %d, first refuting state is %s"
             label got.Mc.Explorer.stored
             (match first_refuting with
              | Some k -> string_of_int k
              | None -> "none"))
      else Ok via_sup
    | _ ->
      if got <> full then
        Error
          (Printf.sprintf "%s: statistics %s, full search %s" label
             (pp_stats got) (pp_stats full))
      else Ok via_sup

(* A finite sup of [Sup_delay] at [ceiling]. *)
let finite_sup ~net ~trigger ~response ~ceiling =
  match
    (Mc.Query.eval net (Mc.Query.Sup_delay { trigger; response; ceiling }))
      .Mc.Query.res_outcome
  with
  | Mc.Query.Sup (Mc.Explorer.Sup (v, _)) -> Ok v
  | o -> Error (Fmt.str "expected a finite sup, got %a" Mc.Query.pp_outcome o)

(* The contract at a bound below the sup, at it and above it, with and
   without a state limit that cuts each full search in half; below the
   sup the stop must also save states on the railroad PSM. *)
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
      let ok = function
        | Ok r -> r
        | Error msg -> Alcotest.failf "%s: %s" name msg
      in
      let sup = ok (finite_sup ~net ~trigger ~response ~ceiling) in
      List.iter
        (fun bound ->
          let full = ok (bounded_vs_sup ~net ~trigger ~response bound) in
          let limit =
            max 1 (full.Mc.Query.res_stats.Mc.Explorer.visited / 2)
          in
          match
            (ok (bounded_vs_sup ~limit ~net ~trigger ~response bound))
              .Mc.Query.res_outcome
          with
          | Mc.Query.Unknown _ -> ()
          | o -> Alcotest.failf "%s, bound %d: limit %d did not interrupt (%a)"
                   name bound limit Mc.Query.pp_outcome o)
        [ sup - 1; sup; sup + 1 ])
    cases;
  let net = Test_runctl.railroad_psm () in
  let stats bound =
    (Mc.Query.eval net
       (Mc.Query.Bounded_response
          { trigger = "m_Train"; response = "c_GateDown"; bound }))
      .Mc.Query.res_stats
  in
  let sup =
    match
      finite_sup ~net ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320
    with
    | Ok v -> v
    | Error msg -> Alcotest.failf "railroad-psm: %s" msg
  in
  Alcotest.(check bool) "railroad-psm: a refuted bound stores fewer states"
    true
    ((stats (sup - 1)).Mc.Explorer.stored < (stats sup).Mc.Explorer.stored)

(* The same contract over random instances of every generator shape. *)
let prop_bounded_is_sup =
  QCheck.Test.make ~name:"bounded = sup against the bound, every shape"
    ~count:16
    QCheck.(
      make
        ~print:(fun (shape, index) ->
          Printf.sprintf "%s #%d" (Diff.Gen.shape_name shape) index)
        Gen.(pair (oneofl Diff.Gen.all_shapes) (int_bound 999)))
    (fun (shape, index) ->
      let i = Diff.Gen.instance ~seed:31 ~index shape in
      let net = i.Diff.Gen.net
      and trigger = i.Diff.Gen.trigger
      and response = i.Diff.Gen.response in
      match finite_sup ~net ~trigger ~response ~ceiling:i.Diff.Gen.ceiling with
      | Error msg -> QCheck.Test.fail_reportf "%s: %s" i.Diff.Gen.id msg
      | Ok sup ->
        List.for_all
          (fun bound ->
            match bounded_vs_sup ~net ~trigger ~response bound with
            | Ok _ -> true
            | Error msg -> QCheck.Test.fail_reportf "%s: %s" i.Diff.Gen.id msg)
          [ sup - 1; sup; sup + 1 ])

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

(* A one-location model whose self-loop counts [n] past its range: the
   search meets the violation at its fifth state. *)
let over_text =
  {|network over;

int[0,3] n = 0;

process P {
  state
    A;
  init A;
  trans
    A -> A { assign n := n + 1; };
}
|}

let over_msg = "assignment n := 4 violates range [0, 3]"

(* The violation is a model error, diagnosed like one: [psv check]
   answers an ERROR row with the plain message and exits 1, whether the
   query comes from a file or from [-e]. *)
let test_range_violation () =
  Cli.with_file over_text (fun path ->
      let row = Printf.sprintf "  1  ERROR  A[] n <= 3\n     %s\n" over_msg in
      Cli.with_file ~suffix:".q" "A[] n <= 3\n" (fun queries ->
          List.iter
            (fun (what, source) ->
              let code, out, _ = Cli.run ([ "check"; path ] @ source) in
              Alcotest.(check int) (what ^ " exit") 1 code;
              Alcotest.(check bool)
                (Printf.sprintf "%s row: %S" what out)
                true
                (Test_codegen.contains out row))
            [ ("check -e", [ "-e"; "A[] n <= 3" ]); ("check", [ queries ]) ]))

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
    QCheck_alcotest.to_alcotest prop_bounded_is_sup;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "numbers out of range" `Quick test_parse_range;
    Alcotest.test_case "delays at the largest constant" `Quick
      test_largest_constant;
    Alcotest.test_case "PSM sup at the largest ceiling" `Quick
      test_psm_largest_ceiling;
    Alcotest.test_case "wide-lane sup pins" `Quick test_wide_lane_pins;
    Alcotest.test_case "pp_outcome text" `Quick test_pp_outcome_text;
    Alcotest.test_case "range violation is a model error" `Quick
      test_range_violation ]
