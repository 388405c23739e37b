(* Tests for the model layer: builders, accessors, the transformations
   used by the PIM->PSM construction, and every class of validation
   failure. *)

open Ta

let loc = Model.location
let edge = Model.edge

let valid_net () =
  let a =
    Model.automaton ~name:"A" ~initial:"L0"
      [ loc ~inv:[ Clockcons.le "x" 5 ] "L0"; loc "L1" ]
      [ edge ~guard:[ Clockcons.ge "x" 2 ] ~sync:(Model.Send "go")
          ~resets:[ "x" ]
          ~updates:[ ("n", Expr.(var "n" + int 1)) ]
          "L0" "L1" ]
  in
  let b =
    Model.automaton ~name:"B" ~initial:"M0"
      [ loc "M0"; loc "M1" ]
      [ edge ~sync:(Model.Recv "go") "M0" "M1" ]
  in
  Model.network ~name:"n" ~clocks:[ "x" ]
    ~vars:[ ("n", Model.int_var ~min:0 ~max:3 0) ]
    ~channels:[ ("go", Model.Binary) ]
    [ a; b ]

let test_validate_ok () =
  Alcotest.(check (list string)) "no problems" [] (Model.validate (valid_net ()))

let expect_problem mutate fragment =
  let net = mutate (valid_net ()) in
  let problems = Model.validate net in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec scan i =
      i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
    in
    scan 0
  in
  let mentions p = contains p fragment in
  Alcotest.(check bool)
    (Fmt.str "a problem mentioning %S in %a" fragment
       Fmt.(Dump.list string) problems)
    true
    (List.exists mentions problems)

let test_validate_unknown_clock () =
  expect_problem
    (fun net -> { net with Model.net_clocks = [] })
    "unknown clock"

let test_validate_unknown_var () =
  expect_problem (fun net -> { net with Model.net_vars = [] }) "unknown variable"

let test_validate_unknown_channel () =
  expect_problem (fun net -> { net with Model.net_channels = [] })
    "unknown channel"

(* Whole messages, owner prefix included: a location problem is owned
   by "automaton.location", an edge problem by "automaton: src -> dst". *)
let test_validate_full_text () =
  let net = { (valid_net ()) with Model.net_clocks = [] } in
  Alcotest.(check (list string))
    "problems"
    [ {|A.L0: unknown clock "x"|};
      {|A: L0 -> L1: unknown clock "x"|};
      {|A: L0 -> L1: resets unknown clock "x"|} ]
    (Model.validate net)

let test_validate_bad_initial () =
  expect_problem
    (fun net ->
      let a = Model.find_automaton net "A" in
      Model.replace_automaton net "A" { a with Model.aut_initial = "Nowhere" })
    "initial location"

let test_validate_bad_edge_target () =
  expect_problem
    (fun net ->
      let a = Model.find_automaton net "A" in
      Model.replace_automaton net "A"
        { a with Model.aut_edges = [ edge "L0" "Nowhere" ] })
    "unknown target"

let test_validate_duplicates () =
  expect_problem
    (fun net -> { net with Model.net_clocks = [ "x"; "x" ] })
    "duplicate clock"

let test_validate_broadcast_clock_guard () =
  expect_problem
    (fun net ->
      let b = Model.find_automaton net "B" in
      let guarded =
        edge ~guard:[ Clockcons.ge "x" 1 ] ~sync:(Model.Recv "go") "M0" "M1"
      in
      let net =
        Model.replace_automaton net "B" { b with Model.aut_edges = [ guarded ] }
      in
      { net with Model.net_channels = [ ("go", Model.Broadcast) ] })
    "broadcast receive"

(* Constants past [Clockcons.max_constant] would overflow the zone
   encoding: the model layer refuses them in guards and invariants, and
   compilation refuses them as clock ceilings. *)
let test_validate_constant_range () =
  let past = Clockcons.max_constant + 1 in
  expect_problem
    (fun net ->
      let a = Model.find_automaton net "A" in
      Model.replace_automaton net "A"
        { a with
          Model.aut_locations =
            [ loc ~inv:[ Clockcons.le "x" past ] "L0"; loc "L1" ] })
    "in magnitude";
  expect_problem
    (fun net ->
      let a = Model.find_automaton net "A" in
      Model.replace_automaton net "A"
        { a with
          Model.aut_edges =
            [ edge ~guard:[ Clockcons.ge "x" (- past) ] "L0" "L1" ] })
    "in magnitude";
  let net = valid_net () in
  ignore
    (Compiled.compile ~clock_ceilings:[ ("x", Clockcons.max_constant) ] net
      : Compiled.t);
  match Compiled.compile ~clock_ceilings:[ ("x", past) ] net with
  | exception Compiled.Compile_error _ -> ()
  | _ -> Alcotest.fail "a clock ceiling past the maximum compiled"

let test_sends_receives () =
  let net = valid_net () in
  Alcotest.(check (list string)) "A sends" [ "go" ]
    (Model.sends_of (Model.find_automaton net "A"));
  Alcotest.(check (list string)) "A receives" []
    (Model.receives_of (Model.find_automaton net "A"));
  Alcotest.(check (list string)) "B receives" [ "go" ]
    (Model.receives_of (Model.find_automaton net "B"))

let test_rename_channels () =
  let net = valid_net () in
  let a = Model.find_automaton net "A" in
  let renamed = Model.rename_channels (fun c -> "i_" ^ c) a in
  Alcotest.(check (list string)) "renamed" [ "i_go" ] (Model.sends_of renamed);
  (* structure untouched *)
  Alcotest.(check int) "same edge count"
    (List.length a.Model.aut_edges)
    (List.length renamed.Model.aut_edges)

let test_guard_all_edges () =
  let net = valid_net () in
  let a = Model.find_automaton net "A" in
  let gated = Model.guard_all_edges (Expr.var_eq "n" 0) a in
  List.iter
    (fun e ->
      match e.Model.edge_pred with
      | Expr.Cmp _ | Expr.And _ -> ()
      | p -> Alcotest.failf "edge not gated: %a" Expr.pp_pred p)
    gated.Model.aut_edges;
  (* except-filtered edges stay untouched *)
  let skipped = Model.guard_all_edges ~except:(fun _ -> true) Expr.False a in
  Alcotest.(check bool) "except skips" true
    (List.for_all2
       (fun e e' -> e.Model.edge_pred = e'.Model.edge_pred)
       a.Model.aut_edges skipped.Model.aut_edges)

let test_size () =
  let locations, edges = Model.size (valid_net ()) in
  Alcotest.(check (pair int int)) "size" (4, 2) (locations, edges)

let test_channel_kind () =
  let net = valid_net () in
  Alcotest.(check bool) "binary" true
    (Model.channel_kind net "go" = Model.Binary)

let test_add_automata () =
  let net = valid_net () in
  let c = Model.automaton ~name:"C" ~initial:"Z" [ loc "Z" ] [] in
  let net' = Model.add_automata net [ c ] in
  Alcotest.(check int) "three automata" 3 (List.length net'.Model.net_automata)

let test_flag_bounds () =
  let f = Model.flag () in
  Alcotest.(check (pair int int)) "flag range" (0, 1)
    (f.Model.var_min, f.Model.var_max);
  Alcotest.(check int) "flag init" 0 f.Model.var_init

let suite =
  [ Alcotest.test_case "validate accepts a good network" `Quick
      test_validate_ok;
    Alcotest.test_case "validate: unknown clock" `Quick
      test_validate_unknown_clock;
    Alcotest.test_case "validate: unknown variable" `Quick
      test_validate_unknown_var;
    Alcotest.test_case "validate: unknown channel" `Quick
      test_validate_unknown_channel;
    Alcotest.test_case "validate: bad initial" `Quick test_validate_bad_initial;
    Alcotest.test_case "validate: bad edge target" `Quick
      test_validate_bad_edge_target;
    Alcotest.test_case "validate: duplicates" `Quick test_validate_duplicates;
    Alcotest.test_case "validate: broadcast clock guard" `Quick
      test_validate_broadcast_clock_guard;
    Alcotest.test_case "validate: constant range" `Quick
      test_validate_constant_range;
    Alcotest.test_case "sends/receives" `Quick test_sends_receives;
    Alcotest.test_case "rename channels" `Quick test_rename_channels;
    Alcotest.test_case "guard all edges" `Quick test_guard_all_edges;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "channel kind" `Quick test_channel_kind;
    Alcotest.test_case "add automata" `Quick test_add_automata;
    Alcotest.test_case "flag bounds" `Quick test_flag_bounds;
    Alcotest.test_case "validate: full problem text" `Quick
      test_validate_full_text ]
