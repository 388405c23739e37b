(* Tests for the textual model format: hand-written inputs, error
   reporting, and the print->parse round-trip on fixed and random
   networks (including a generated PSM, the most feature-dense network
   the library produces). *)

open Ta

(* The shipped [models/*.xta].  [dune runtest] runs the suite from
   [_build/default/test]; [dune exec test/main.exe] from the root. *)
let model_dir =
  if Sys.file_exists "models" && Sys.is_directory "models" then "models"
  else Filename.concat Filename.parent_dir_name "models"

let model_files () =
  Sys.readdir model_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xta")
  |> List.sort compare

let load_model file =
  let path = Filename.concat model_dir file in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Xta.Parse.network text with
  | Ok net -> net
  | Error msg -> Alcotest.failf "%s: %s" path msg

let roundtrip net =
  let text = Xta.Print.to_string net in
  match Xta.Parse.network text with
  | Ok net2 -> (text, Xta.Print.to_string net2)
  | Error msg -> Alcotest.failf "re-parse failed: %s@.%s" msg text

let check_roundtrip name net =
  let first, second = roundtrip net in
  Alcotest.(check string) name first second

let test_parse_minimal () =
  let source =
    {|
// a comment
network tiny;

clock x;
int[0,3] n = 1;
broadcast chan go;
chan ack;

process P {
  state
    A { x <= 5 },
    B;
  commit B;
  init A;
  trans
    A -> B { guard x >= 2 && x <= 4; when n != 3; sync go!;
             reset x; assign n := n + 1; };
}
|}
  in
  match Xta.Parse.network source with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    Alcotest.(check string) "name" "tiny" net.Model.net_name;
    Alcotest.(check (list string)) "clocks" [ "x" ] net.Model.net_clocks;
    let a = Model.find_automaton net "P" in
    Alcotest.(check int) "locations" 2 (List.length a.Model.aut_locations);
    let b = Model.find_location a "B" in
    Alcotest.(check bool) "committed" true (b.Model.loc_kind = Model.Committed);
    (match a.Model.aut_edges with
     | [ e ] ->
       Alcotest.(check int) "guard atoms" 2 (List.length e.Model.edge_guard);
       Alcotest.(check bool) "sync" true (e.Model.edge_sync = Model.Send "go");
       Alcotest.(check (list string)) "resets" [ "x" ] e.Model.edge_resets;
       Alcotest.(check int) "updates" 1 (List.length e.Model.edge_updates)
     | edges -> Alcotest.failf "expected 1 edge, got %d" (List.length edges))

let test_parse_errors_have_lines () =
  let check_error source =
    match Xta.Parse.network source with
    | Ok _ -> Alcotest.failf "bogus input accepted: %s" source
    | Error msg ->
      Alcotest.(check bool)
        (Fmt.str "error mentions a line: %s" msg)
        true
        (String.length msg > 5 && String.sub msg 0 5 = "line ")
  in
  check_error "netwrk x;";
  check_error "network x; process P { }";
  check_error "network x; clock 42;";
  check_error "network x; process P { state A; init A; trans A -> B { sync q; }; }";
  check_error "network x; int[0] v = 0;"

(* A literal too long for an int is a diagnosed parse error. *)
let test_number_out_of_range () =
  Alcotest.(check (result reject string)) "20-digit invariant"
    (Error "line 3: number out of range")
    (Xta.Parse.network
       "network x;\nclock c;\nprocess P { state A { c <= \
        99999999999999999999 }; init A; }")

(* A literal that fits an int but passes the largest clock constant
   parses; validation, which every model loader runs before compiling,
   is what refuses it. *)
let test_constant_past_maximum () =
  let text n =
    Printf.sprintf
      "network x;\nclock c;\nprocess P { state A { c <= %d }; init A; }" n
  in
  let validate n =
    match Xta.Parse.network (text n) with
    | Ok net -> Model.validate net
    | Error msg -> Alcotest.failf "invariant c <= %d does not parse: %s" n msg
  in
  Alcotest.(check (list string)) "the maximum itself" []
    (validate Clockcons.max_constant);
  Alcotest.(check (list string)) "one past it"
    [ Printf.sprintf "P.A: clock constant %d exceeds %d in magnitude"
        (Clockcons.max_constant + 1) Clockcons.max_constant ]
    (validate (Clockcons.max_constant + 1))

let test_lexer_rejects_garbage () =
  match Xta.Parse.network "network x; \x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "control character accepted"

let test_roundtrip_gpca () =
  check_roundtrip "gpca PIM"
    (Gpca.Model.network Gpca.Params.default)

let test_roundtrip_gpca_psm () =
  check_roundtrip "gpca PSM"
    (Gpca.Model.psm Gpca.Params.default).Transform.psm_net

let test_roundtrip_preserves_semantics () =
  (* Beyond text equality: the re-parsed network verifies identically. *)
  let net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only Gpca.Params.default in
  let text = Xta.Print.to_string net in
  match Xta.Parse.network text with
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg
  | Ok net2 ->
    let sup n =
      (Mc.Query.max_delay n ~trigger:Gpca.Model.bolus_req
         ~response:Gpca.Model.start_infusion ~ceiling:1000)
        .Mc.Explorer.so_sup
    in
    Alcotest.(check bool) "same verified bound" true (sup net = sup net2)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"print/parse round-trip on random networks"
    ~count:200 Gen.arb_network
    (fun net ->
      let text = Xta.Print.to_string net in
      match Xta.Parse.network text with
      | Error msg -> QCheck.Test.fail_reportf "re-parse failed: %s@.%s" msg text
      | Ok net2 ->
        let text2 = Xta.Print.to_string net2 in
        if text = text2 then true
        else
          QCheck.Test.fail_reportf "unstable round-trip:@.%s@.vs@.%s" text text2)

(* Random data expressions survive the trip through an edge assign. *)
let prop_roundtrip_expressions =
  let gen_net_with_pred =
    let open QCheck.Gen in
    let gen_expr =
      sized
      @@ fix (fun self n ->
             if n <= 0 then
               oneof
                 [ map Expr.int (int_range (-9) 9);
                   return (Expr.var "v") ]
             else
               let sub = self (n / 2) in
               oneof
                 [ map2 (fun a b -> Expr.Add (a, b)) sub sub;
                   map2 (fun a b -> Expr.Sub (a, b)) sub sub;
                   map2 (fun a b -> Expr.Mul (a, b)) sub sub;
                   map (fun a -> Expr.Neg a) sub ])
    in
    let* rhs = gen_expr in
    let* lhs = gen_expr in
    let a =
      Ta.Model.automaton ~name:"P" ~initial:"A"
        [ Ta.Model.location "A" ]
        [ Ta.Model.edge
            ~pred:(Expr.le lhs rhs)
            ~updates:[ ("v", rhs) ]
            "A" "A" ]
    in
    return
      (Ta.Model.network ~name:"exprs" ~clocks:[]
         ~vars:[ ("v", Ta.Model.int_var ~min:(-1000) ~max:1000 0) ]
         ~channels:[] [ a ])
  in
  QCheck.Test.make ~name:"round-trip preserves expressions" ~count:300
    (QCheck.make ~print:(Fmt.to_to_string Ta.Model.pp) gen_net_with_pred)
    (fun net ->
      let text = Xta.Print.to_string net in
      match Xta.Parse.network text with
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s@.%s" msg text
      | Ok net2 -> Xta.Print.to_string net2 = text)

(* The example in print.mli, which must stay the printer's literal
   output. *)
let test_documented_example () =
  let pump =
    Model.automaton ~name:"Pump" ~initial:"Idle"
      [ Model.location "Idle";
        Model.location ~inv:[ Clockcons.le "x" 500 ] "Prep";
        Model.location ~kind:Model.Committed "Ack" ]
      [ Model.edge ~sync:(Model.Recv "req") ~resets:[ "x"; "y" ] "Idle" "Prep";
        Model.edge ~guard:[ Clockcons.ge "x" 250 ] ~pred:(Expr.var_eq "n" 0)
          ~sync:(Model.Send "start")
          ~updates:[ ("n", Expr.int 1); ("m", Expr.(var "n" + int 2)) ]
          "Prep" "Ack";
        Model.edge "Ack" "Idle" ]
  in
  let net =
    Model.network ~name:"tiny" ~clocks:[ "x"; "y" ]
      ~vars:[ ("n", Model.int_var ~min:0 ~max:5 0); ("m", Model.int_var ~min:0 ~max:9 0) ]
      ~channels:[ ("req", Model.Broadcast); ("start", Model.Binary) ]
      [ pump ]
  in
  Alcotest.(check string) "print.mli example" {|network tiny;

clock x,
y;
int[0,5] n = 0;
int[0,9] m = 0;
broadcast chan req;
chan start;

process Pump {
  state
    Idle,
    Prep { x <= 500 },
    Ack;
  commit Ack;
  init Idle;
  trans
    Idle -> Prep { sync req?; reset x,
  y; },
    Prep -> Ack { guard x >= 250; when n == 0; sync start!; assign n := 1,
  m := (n + 2); },
    Ack -> Idle { };
}|}
    (Xta.Print.to_string net)

(* --- the printer against its reference --------------------------------- *)

(* One network that reaches every branch of the printer: commit and
   urgent lists of two names, diff constraints, negative literals,
   every operator and relation, an assign of two updates, an automaton
   with no edges.  [no_clocks] is the same network stripped of clocks
   and clock constraints. *)
let every_branch =
  let open Expr in
  let ctrl =
    Model.automaton ~name:"Ctrl" ~initial:"Idle"
      [ Model.location "Idle";
        Model.location
          ~inv:[ Clockcons.le "x" 9; Clockcons.Diff ("x", "y", Clockcons.Lt, 3) ]
          "Busy";
        Model.location ~kind:Model.Committed "C1";
        Model.location ~kind:Model.Committed "C2";
        Model.location ~kind:Model.Urgent "U1";
        Model.location ~kind:Model.Urgent "U2" ]
      [ Model.edge ~sync:(Model.Recv "req") ~resets:[ "x"; "y" ] "Idle" "Busy";
        Model.edge
          ~guard:
            [ Clockcons.gt "x" 1; Clockcons.eq_ "y" 2;
              Clockcons.Diff ("y", "x", Clockcons.Ge, -2) ]
          ~pred:
            (Or
               ( Not (Cmp (Neg (var "n"), Ne, int (-4))),
                 And (Cmp (var "n" * int 2, Lt, int 7), Cmp (var "m" - var "n", Gt, int 0))
               ))
          ~sync:(Model.Send "ack")
          ~updates:[ ("n", (var "n" + int 1) * int (-3)); ("m", Neg (int 5)) ]
          "Busy" "C1";
        Model.edge ~pred:False "C1" "C2";
        Model.edge ~pred:(And (True, Cmp (var "m", Le, var "n"))) "C2" "U1";
        Model.edge ~pred:(Cmp (var "m", Ge, int 0)) ~sync:(Model.Send "tick") "U1" "U2";
        Model.edge ~pred:(Cmp (var "m", Eq, int 0)) "U2" "Idle" ]
  in
  let quiet = Model.automaton ~name:"Quiet" ~initial:"Q" [ Model.location "Q" ] [] in
  Model.network ~name:"branches" ~clocks:[ "x"; "y" ]
    ~vars:[ ("n", Model.int_var ~min:0 ~max:9 0); ("m", Model.int_var ~min:0 ~max:99 3) ]
    ~channels:[ ("req", Model.Broadcast); ("ack", Model.Binary); ("tick", Model.Broadcast) ]
    [ ctrl; quiet ]

let no_clocks =
  let strip (a : Model.automaton) =
    { a with
      Model.aut_locations =
        List.map (fun l -> { l with Model.loc_inv = [] }) a.Model.aut_locations;
      aut_edges =
        List.map
          (fun e -> { e with Model.edge_guard = []; edge_resets = [] })
          a.Model.aut_edges }
  in
  { every_branch with
    Model.net_name = "unclocked";
    net_clocks = [];
    net_automata = List.map strip every_branch.Model.net_automata }

let sweep_grid_points () =
  let axes =
    [ "period=20,40,60,80"; "poll=5,10,20,80,120"; "mech=0,1"; "buffer=1,2";
      "policy=0,1"; "signal=0,1"; "in_dmax=2,5"; "out_dmax=5,10" ]
  in
  let parsed =
    List.map
      (fun s ->
        match Scheme.Grid.parse_axis s with Ok ax -> ax | Error msg -> failwith msg)
      axes
  in
  let grid = match Scheme.Grid.make parsed with Ok g -> g | Error msg -> failwith msg in
  let build = Gpca.Sweep_space.build ~base:Gpca.Sweep_space.Small ~req:150 grid in
  let valid =
    List.filter_map
      (fun i ->
        let spec = build i in
        if spec.Analysis.Sweep.sp_invalid = None then Some (i, spec) else None)
      (List.init (Scheme.Grid.cardinality grid) Fun.id)
  in
  List.filteri (fun k _ -> k mod 3 = 0) valid
  |> List.map (fun (i, spec) -> (Fmt.str "sweep point %d" i, spec.Analysis.Sweep.sp_net ()))

(* Every shipped model, the Table-I PSMs, generated fuzz instances and
   one random edit of each, a third of CI's sweep grid, and the
   every-branch networks. *)
let printer_corpus () =
  let models = List.map (fun f -> (f, load_model f)) (model_files ()) in
  let table1 =
    List.map
      (fun (name, variant) ->
        (name, (Gpca.Model.psm ~variant Gpca.Params.default).Transform.psm_net))
      [ ("Table-I PSM (bolus)", Gpca.Model.Bolus_only); ("Table-I PSM (full)", Gpca.Model.Full) ]
  in
  let generated =
    List.concat_map
      (fun shape ->
        List.concat_map
          (fun seed ->
            List.concat_map
              (fun index ->
                let net = (Diff.Gen.instance ~seed ~index shape).Diff.Gen.net in
                let edit = Incr.Edit.random_edit (Random.State.make [| seed; index |]) net in
                let name = Fmt.str "%s seed %d index %d" (Diff.Gen.shape_name shape) seed index in
                [ (name, net); (name ^ " + " ^ edit.Incr.Edit.ed_desc, edit.Incr.Edit.ed_net) ])
              (List.init 10 Fun.id))
          (List.init 20 (fun k -> k + 1)))
      Diff.Gen.all_shapes
  in
  models @ table1 @ generated @ sweep_grid_points ()
  @ [ ("every branch", every_branch); ("no clocks", no_clocks) ]

let test_printer_matches_reference () =
  let corpus = printer_corpus () in
  List.iter
    (fun (name, net) ->
      let text = Xta.Print.to_string net in
      Alcotest.(check string) (name ^ ": reference bytes") (Ref_print.to_string net) text;
      match Xta.Parse.network text with
      | Error msg -> Alcotest.failf "%s: re-parse failed: %s@.%s" name msg text
      | Ok net2 ->
        Alcotest.(check string) (name ^ ": print . parse fixpoint") text
          (Xta.Print.to_string net2))
    corpus;
  Alcotest.(check bool) "corpus is not trivially small" true (List.length corpus > 1000)

let suite =
  [ Alcotest.test_case "parse a hand-written model" `Quick test_parse_minimal;
    Alcotest.test_case "errors carry line numbers" `Quick
      test_parse_errors_have_lines;
    Alcotest.test_case "lexer rejects garbage" `Quick test_lexer_rejects_garbage;
    Alcotest.test_case "number out of range" `Quick test_number_out_of_range;
    Alcotest.test_case "constant past the maximum" `Quick
      test_constant_past_maximum;
    Alcotest.test_case "round-trip: GPCA PIM" `Quick test_roundtrip_gpca;
    Alcotest.test_case "round-trip: GPCA PSM" `Quick test_roundtrip_gpca_psm;
    Alcotest.test_case "round-trip preserves semantics" `Quick
      test_roundtrip_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_roundtrip_expressions;
    Alcotest.test_case "print.mli example is literal output" `Quick
      test_documented_example;
    Alcotest.test_case "printer matches reference on a corpus" `Quick
      test_printer_matches_reference ]
