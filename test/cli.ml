(* The [psv] command line run as a child process, for the exit codes and
   diagnostics only the executable produces.  [dune runtest] runs the
   suite from [_build/default/test], next to [../bin]; [dune exec
   test/main.exe] runs it from the root, after [dune build]. *)

let exe =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "../bin/psv_cli.exe"; "_build/default/bin/psv_cli.exe" ]
     with
     | Some path -> path
     | None -> Alcotest.fail "psv_cli.exe not found: run dune build first")

(* [run args] is the exit code, stdout and stderr of [psv args]. *)
let run args =
  let out = Filename.temp_file "psv_cli" ".out"
  and err = Filename.temp_file "psv_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command (Lazy.force exe) args ~stdout:out ~stderr:err)
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err))

(* A scratch file holding [text], removed after [f path]. *)
let with_file ?(suffix = ".xta") text f =
  let path = Filename.temp_file "psv_cli" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* --- JSON outputs ---------------------------------------------------------

   [verify --json], [sweep-schemes --json] and [--points-out] print
   through [Store.Json].  Each case pins the document an earlier
   hand-formatted printer wrote, byte for byte, and requires the output
   to parse to the same keys in the same order with the same values;
   numbers compare by value, so [0.7500] and [0.75] are one skip rate. *)

let rec same_json a b =
  let open Store.Json in
  match a, b with
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && same_json x y) xs ys
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 same_json xs ys
  | (Int _ | Float _), (Int _ | Float _) -> to_float a = to_float b
  | _ -> a = b

let json_doc =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Store.Json.to_string v))
    same_json

let parse what text =
  match Store.Json.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s in %S" what msg text

let check_json what ~expected text =
  Alcotest.check json_doc what (parse (what ^ " (pinned)") expected)
    (parse what text)

(* [with_psm f] exports the GPCA PSM to a scratch file for [f]. *)
let with_psm f =
  with_file "" (fun psm ->
      let code, _, err = run [ "export"; "--psm"; "-o"; psm ] in
      if code <> 0 then Alcotest.failf "export: exit %d: %s" code err;
      f psm)

let verify_json psm extra =
  run
    ([ "verify"; psm; "--trigger"; "m_BolusReq"; "--response";
       "c_StartInfusion"; "--json" ]
    @ extra)

let test_verify_json () =
  with_psm (fun psm ->
      List.iter
        (fun (what, extra, rc, expected) ->
          let code, out, _ = verify_json psm extra in
          Alcotest.(check int) (what ^ ": exit code") rc code;
          check_json what ~expected out)
        [ ( "sup", [], 0,
            {|{"verdict": "proved", "reason": null, "bound": null, "sup": {"kind": "value", "value": 1430, "strict": false}, "stats": {"visited": 21024, "stored": 22166, "frontier": 0}, "checkpoint": null}|}
          );
          ( "--bound 1430", [ "--bound"; "1430" ], 0,
            {|{"verdict": "proved", "reason": null, "bound": 1430, "sup": {"kind": "value", "value": 1430, "strict": false}, "stats": {"visited": 21024, "stored": 22166, "frontier": 0}, "checkpoint": null}|}
          );
          ( "--bound 1000", [ "--bound"; "1000" ], 1,
            {|{"verdict": "refuted", "reason": null, "bound": 1000, "sup": {"kind": "value", "value": 1430, "strict": false}, "stats": {"visited": 20837, "stored": 21956, "frontier": 0}, "checkpoint": null}|}
          ) ])

(* An interrupted search: the reason is the budget's bare tag, the sup
   the partial one, and the checkpoint path is a JSON string escaped as
   one (here, a tab). *)
let test_verify_json_interrupted () =
  with_psm (fun psm ->
      let snap = Filename.temp_file "psv_cli" "\tcut.snap" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists snap then Sys.remove snap)
        (fun () ->
          let code, out, _ =
            verify_json psm [ "--budget-states"; "2000"; "--checkpoint"; snap ]
          in
          Alcotest.(check int) "exit code" 2 code;
          check_json "interrupted"
            ~expected:
              (Printf.sprintf
                 {|{"verdict": "unknown", "reason": "state-budget", "bound": null, "sup": {"kind": "value", "value": 850, "strict": false}, "stats": {"visited": 2000, "stored": 2243, "frontier": 109}, "checkpoint": %s}|}
                 (Store.Json.to_string (Store.Json.String snap)))
            out))

(* The summary's wall time is the one value that moves between runs: it
   must be a number, and is then left out of the comparison. *)
let without_wall_ms what v =
  match v with
  | Store.Json.Obj fields ->
    (match Option.bind (List.assoc_opt "wall_ms" fields) Store.Json.to_float with
     | Some _ -> ()
     | None -> Alcotest.failf "%s: no numeric wall_ms" what);
    Store.Json.Obj (List.remove_assoc "wall_ms" fields)
  | _ -> Alcotest.failf "%s: not an object" what

let test_sweep_json () =
  with_file ~suffix:".ldjson" "" (fun points ->
      let code, out, _ =
        run
          [ "sweep-schemes"; "-a"; "period=20,40"; "-a"; "poll=5,80"; "-a";
            "mech=0,1"; "--req"; "150"; "--json"; "--points-out"; points ]
      in
      Alcotest.(check int) "exit code" 0 code;
      Alcotest.check json_doc "summary"
        (without_wall_ms "pinned summary"
           (parse "pinned summary"
              {|{"points": 8, "pass": 6, "fail": 2, "unknown": 0, "invalid": 0, "analytic_pass": 6, "analytic_fail": 0, "explored": 2, "memo_hits": 0, "mc_runs": 2, "skip_rate": 0.7500, "audited": 0, "audit_mismatches": 0, "interrupted": 0, "wall_ms": 53.0, "pareto": [{"point": 5, "cost": [2, 250, 200, 1666, 909]}], "req": 150, "base": "small"}|}))
        (without_wall_ms "summary" (parse "summary" out));
      let lines =
        In_channel.with_open_bin points In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      let expected =
        [ {|{"point": 0, "verdict": "pass", "decision": "analytic-ub", "ub": 93, "lb": 31, "cost": [2, 500, 2000, 1666, 909]}|};
          {|{"point": 1, "verdict": "pass", "decision": "analytic-ub", "ub": 113, "lb": 31, "cost": [2, 250, 2000, 1666, 909]}|};
          {|{"point": 2, "verdict": "pass", "decision": "analytic-ub", "ub": 93, "lb": 31, "cost": [2, 500, 2000, 1666, 909]}|};
          {|{"point": 3, "verdict": "pass", "decision": "analytic-ub", "ub": 113, "lb": 31, "cost": [2, 250, 2000, 1666, 909]}|};
          {|{"point": 4, "verdict": "pass", "decision": "analytic-ub", "ub": 98, "lb": 36, "cost": [2, 500, 200, 1666, 909]}|};
          {|{"point": 5, "verdict": "pass", "decision": "analytic-ub", "ub": 118, "lb": 36, "cost": [2, 250, 200, 1666, 909]}|};
          {|{"point": 6, "verdict": "fail", "decision": "explorer", "ub": 173, "lb": 111, "sup": {"kind": "value", "value": 163, "strict": false}, "cost": [2, 500, 12, 1666, 909]}|};
          {|{"point": 7, "verdict": "fail", "decision": "explorer", "ub": 193, "lb": 111, "sup": {"kind": "exceeds", "ceiling": 150}, "cost": [2, 250, 12, 1666, 909]}|}
        ]
      in
      Alcotest.(check int) "point lines" (List.length expected)
        (List.length lines);
      List.iteri
        (fun i (expected, line) ->
          check_json (Printf.sprintf "point %d" i) ~expected line)
        (List.combine expected lines))

(* A points file that cannot be written is an I/O error, exit 3: the
   points are not lost behind a successful exit. *)
let test_points_out_full_disk () =
  if Sys.file_exists "/dev/full" then begin
    let code, _, err =
      run
        [ "sweep-schemes"; "-a"; "period=20,40"; "-a"; "poll=5,80"; "--req";
          "150"; "--points-out"; "/dev/full" ]
    in
    Alcotest.(check int) "exit code" 3 code;
    Alcotest.(check bool)
      (Printf.sprintf "diagnosed: %S" err)
      true
      (List.mem "psv: --points-out: No space left on device"
         (String.split_on_char '\n' err))
  end

let suite =
  [ Alcotest.test_case "verify --json: sup, bound held, bound refuted" `Quick
      test_verify_json;
    Alcotest.test_case "verify --json: interrupted with a checkpoint" `Quick
      test_verify_json_interrupted;
    Alcotest.test_case "sweep-schemes --json and --points-out" `Quick
      test_sweep_json;
    Alcotest.test_case "sweep-schemes --points-out on a full disk" `Quick
      test_points_out_full_disk ]
