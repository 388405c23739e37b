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

(* [run_piped ~input args] is [run args] with [input] written to the
   child's standard input through a pipe, a stream that cannot seek,
   after the shell command [before] (run in the background, if any).
   The child gets 60 s, as a stuck read would otherwise hang the
   suite. *)
let run_piped ?before ~input args =
  let out = Filename.temp_file "psv_cli" ".out"
  and err = Filename.temp_file "psv_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let command =
        Printf.sprintf "%sprintf '%%s' %s | %s"
          (match before with None -> "" | Some cmd -> cmd ^ " & ")
          (Filename.quote input)
          (Filename.quote_command "timeout" ("60" :: Lazy.force exe :: args)
             ~stdout:out ~stderr:err)
      in
      let code = Sys.command command in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err))

(* A scratch file holding [text], removed after [f path]. *)
let with_file ?(suffix = ".xta") text f =
  let path = Filename.temp_file "psv_cli" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A scratch directory, removed with everything in it after [f dir]. *)
let with_dir f =
  let dir = Filename.temp_dir "psv_cli" "" in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let lines text = String.split_on_char '\n' text

(* --- JSON outputs ---------------------------------------------------------

   [verify --json], [check --json], [sweep-schemes --json] and
   [--points-out] print through [Store.Json].  Each case pins a document
   and requires the output to parse to the same keys in the same order
   with the same values; numbers compare by value, so [0.7500] and
   [0.75] are one skip rate. *)

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
            {|{"query": "sup: m_BolusReq -> c_StartInfusion ceiling 10000", "status": "pass", "outcome": {"kind": "sup", "sup": {"kind": "value", "value": 1430, "strict": false}}, "stats": {"visited": 21024, "stored": 22166, "frontier": 0}, "checkpoint": null}|}
          );
          ( "--bound 1430", [ "--bound"; "1430" ], 0,
            {|{"query": "bounded: m_BolusReq -> c_StartInfusion within 1430", "status": "pass", "outcome": {"kind": "holds"}, "stats": {"visited": 21024, "stored": 22166, "frontier": 0}, "checkpoint": null}|}
          );
          ( "--bound 1000", [ "--bound"; "1000" ], 1,
            {|{"query": "bounded: m_BolusReq -> c_StartInfusion within 1000", "status": "fail", "outcome": {"kind": "fails", "trace": null}, "stats": {"visited": 20837, "stored": 21956, "frontier": 0}, "checkpoint": null}|}
          ) ])

(* An interrupted search: the outcome carries the budget and the partial
   sup, and the checkpoint path is a JSON string escaped as one (here, a
   tab). *)
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
                 {|{"query": "sup: m_BolusReq -> c_StartInfusion ceiling 10000", "status": "unknown", "outcome": {"kind": "unknown", "reason": {"tag": "state-budget", "value": 2000}, "partial": {"kind": "value", "value": 850, "strict": false}}, "stats": {"visited": 2000, "stored": 2243, "frontier": 109}, "checkpoint": %s}|}
                 (Store.Json.to_string (Store.Json.String snap)))
            out))

(* [project keep v] is the object [v] with only the fields [keep] takes. *)
let project keep = function
  | Store.Json.Obj fields -> Store.Json.Obj (List.filter (fun (k, _) -> keep k) fields)
  | v -> Alcotest.failf "not an object: %s" (Store.Json.to_string v)

let sup_query = "sup: m_BolusReq -> c_StartInfusion ceiling 10000"
let bounded_query b = "bounded: m_BolusReq -> c_StartInfusion within " ^ b

(* One question, one row: [verify --json] without its checkpoint is the
   row [check -e] prints for the query verify asked, without its line.
   With --bound, verify searches the whole sup and the [bounded:] check
   stops at refutation, so only the query, status and outcome agree. *)
let test_one_row () =
  with_psm (fun psm ->
      let code, out, _ =
        run
          [ "check"; psm; "--json"; "-e"; sup_query; "-e"; bounded_query "1430";
            "-e"; bounded_query "1000" ]
      in
      Alcotest.(check int) "check exit code" 1 code;
      let rows =
        match Store.Json.member "queries" (parse "check" out) with
        | Some (Store.Json.List rows) -> rows
        | _ -> Alcotest.failf "check: no query rows in %S" out
      in
      let answer k = List.mem k [ "query"; "status"; "outcome" ] in
      List.iter2
        (fun (what, extra, keep) row ->
          let _, out, _ = verify_json psm extra in
          Alcotest.check json_doc what
            (project (fun k -> k <> "line" && keep k) row)
            (project (fun k -> k <> "checkpoint" && keep k) (parse what out)))
        [ ("sup", [], Fun.const true);
          ("--bound 1430", [ "--bound"; "1430" ], answer);
          ("--bound 1000", [ "--bound"; "1000" ], answer) ]
        rows)

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

(* --- check -e --------------------------------------------------------------

   [check -e QUERY]... answers its queries as a query file's lines, each
   row numbered by its position. *)

let tiny_text =
  {|network tiny;

process P {
  state
    A, B;
  init A;
  trans
    A -> B { };
}
|}

(* Two rows and the summary; a refuted invariant's counterexample is
   indented below its row, as an error row's message is. *)
let test_check_expr () =
  with_file tiny_text (fun model ->
      let code, out, _ = run [ "check"; model; "-e"; "E<> P.B"; "-e"; "A[] P.A" ] in
      Alcotest.(check int) "exit code" 1 code;
      Alcotest.(check string) "table"
        "  1  pass   E<> P.B  [holds]\n\
        \  2  FAIL   A[] P.A  [FAILS (counterexample of 1 steps)]\n\
        \     P: A -> B (tau)\n\
         \n\
         2 queries, 1 failure, 0 unknown\n"
        out)

(* Both query sources, or neither, is a usage error; so is an -e query
   that does not parse, which is refused before any query is answered. *)
let test_check_expr_usage () =
  with_file tiny_text (fun model ->
      with_file ~suffix:".q" "E<> P.B\n" (fun queries ->
          let sources =
            "psv: give either a QUERIES.q file or -e QUERY, not both\n"
          in
          List.iter
            (fun (what, args, diagnostic) ->
              let code, out, err = run ([ "check"; model ] @ args) in
              Alcotest.(check int) (what ^ ": exit code") 3 code;
              Alcotest.(check string) (what ^ ": stdout") "" out;
              Alcotest.(check string) (what ^ ": stderr") diagnostic err)
            [ ("both sources", [ queries; "-e"; "E<> P.B" ], sources);
              ("no source", [], sources);
              ( "-e parse error",
                [ "-e"; "E<> P.B"; "-e"; "sup: a -> b ceiling 99999999999999999999" ],
                "psv: query: number out of range\n" ) ]))

(* A query that does not parse is refused the same way by [check -e] and
   [watch -q]: one diagnostic and exit 3, before any search. *)
let test_query_parse_error () =
  with_file tiny_text (fun model ->
      List.iter
        (fun (what, args) ->
          let code, out, err = run args in
          Alcotest.(check int) (what ^ ": exit code") 3 code;
          Alcotest.(check string) (what ^ ": stdout") "" out;
          Alcotest.(check string) (what ^ ": stderr")
            "psv: query: unexpected end of query\n" err)
        [ ("check -e", [ "check"; model; "-e"; "E<> (" ]);
          ("watch -q", [ "watch"; model; "-q"; "E<> ("; "--max-edits"; "0" ]) ])

(* --- unwritable outputs ----------------------------------------------------

   An output that cannot be created is a usage error, exit 3, with a
   diagnostic naming it: [fuzz]'s [--out] and [--corpus] before the first
   instance, [codegen]'s files under a missing [--directory]. *)

let test_unwritable_outputs () =
  with_file "" (fun not_a_dir ->
      List.iter
        (fun (what, args, prefix) ->
          let code, _, err = run args in
          Alcotest.(check int) (what ^ ": exit code") 3 code;
          Alcotest.(check bool)
            (Printf.sprintf "%s: diagnostic %S" what err)
            true
            (List.exists (String.starts_with ~prefix) (lines err)))
        [ ( "fuzz --out",
            [ "fuzz"; "--count"; "1"; "--out"; Filename.concat not_a_dir "x" ],
            "psv: --out: " );
          ( "fuzz --corpus",
            [ "fuzz"; "--count"; "1"; "--shrink"; "--inject-sup-skew"; "3";
              "--corpus"; Filename.concat not_a_dir "c" ],
            "psv: --corpus: " );
          ( "codegen -d",
            [ "codegen"; Filename.concat Test_xta.model_dir "gpca_bolus.xta";
              "--software"; "Pump"; "--environment"; "Patient"; "-d";
              "/nonexistent/dir" ],
            "psv: /nonexistent/dir/" ) ])

(* --- inputs that cannot seek, and numbers past an int ----------------------

   A query file piped to [check] and a serve request whose model is a
   FIFO are both read to end of file, not to a length taken up front. *)

let test_pipe_and_fifo () =
  with_psm (fun psm ->
      let code, out, err =
        run_piped ~input:"E<> Pump_IO.Infusing\n" [ "check"; psm; "/dev/stdin" ]
      in
      Alcotest.(check int) (Printf.sprintf "check /dev/stdin: exit (%s)" err) 0
        code;
      Alcotest.(check bool)
        (Printf.sprintf "check /dev/stdin: summary in %S" out)
        true
        (List.exists (String.starts_with ~prefix:"1 query, 0 failures") (lines out));
      with_dir (fun dir ->
          let fifo = Filename.concat dir "model.fifo" in
          Unix.mkfifo fifo 0o600;
          let request =
            Store.Json.to_string
              (Store.Json.Obj
                 [ ("id", Store.Json.Int 1);
                   ("model", Store.Json.String fifo);
                   ("query", Store.Json.String "E<> Pump_IO.Infusing") ])
          in
          let code, out, err =
            run_piped
              ~before:
                (Filename.quote_command "timeout"
                   [ "60"; "sh"; "-c";
                     Filename.quote_command "cat" [ psm ] ~stdout:fifo ])
              ~input:(request ^ "\n") [ "serve" ]
          in
          Alcotest.(check int) (Printf.sprintf "serve: exit (%s)" err) 0 code;
          Alcotest.(check bool)
            (Printf.sprintf "serve answers the FIFO model: %S" out)
            true
            (String.starts_with ~prefix:{|{"id":1,"status":"ok"|} out)))

(* A number too long for an int is an input error: [serve] answers it
   with an error line and then answers the next request; [check -e]
   exits 3 with a [psv:] line rather than an internal error. *)
let test_over_long_numbers () =
  with_psm (fun psm ->
      let q = "sup: m_BolusReq -> c_StartInfusion ceiling 99999999999999999999" in
      let request id query =
        Store.Json.to_string
          (Store.Json.Obj
             [ ("id", Store.Json.Int id);
               ("model", Store.Json.String psm);
               ("query", Store.Json.String query) ])
      in
      let code, out, err =
        run_piped
          ~input:
            (request 1 q ^ "\n" ^ request 2 "E<> Pump_IO.Infusing" ^ "\n")
          [ "serve" ]
      in
      Alcotest.(check int) (Printf.sprintf "serve: exit (%s)" err) 0 code;
      (match lines out with
       | first :: second :: _ ->
         Alcotest.(check string) "serve: the long number's error line"
           {|{"id":1,"status":"error","error":"query: number out of range"}|}
           first;
         Alcotest.(check bool)
           (Printf.sprintf "serve: the next request answered: %S" second)
           true
           (String.starts_with ~prefix:{|{"id":2,"status":"ok"|} second)
       | _ -> Alcotest.failf "serve: two lines expected, got %S" out);
      let code, _, err = run [ "check"; psm; "-e"; q ] in
      Alcotest.(check int) "check -e: exit code" 3 code;
      Alcotest.(check bool)
        (Printf.sprintf "check -e: diagnostic in %S" err)
        true
        (List.mem "psv: query: number out of range" (lines err)))

(* --- checkpoint and resume -------------------------------------------------

   The search order is fixed, so a run cut by a budget and resumed from
   its checkpoint prints the uninterrupted run's stdout whole: the
   verdict and the states line.  A damaged or older checkpoint is
   refused with one diagnostic and exit 3. *)

let test_checkpoint_resume () =
  with_psm (fun psm ->
      with_dir (fun dir ->
          let verify extra =
            run
              ([ "verify"; psm; "--trigger"; "m_BolusReq"; "--response";
                 "c_StartInfusion"; "--bound"; "1430" ]
              @ extra)
          in
          let code, full, _ = verify [] in
          Alcotest.(check int) "uninterrupted exit code" 0 code;
          Alcotest.(check bool)
            (Printf.sprintf "uninterrupted counts: %S" full)
            true
            (List.mem "states: 21024 visited, 22166 stored, 0 frontier" (lines full));
          let cut name extra =
            let snap = Filename.concat dir name in
            let code, _, _ =
              verify (extra @ [ "--budget-states"; "5000"; "--checkpoint"; snap ])
            in
            Alcotest.(check int) (name ^ ": exit code") 2 code;
            Alcotest.(check bool) (name ^ ": snapshot written") true
              (Sys.file_exists snap && (Unix.stat snap).Unix.st_size > 0);
            snap
          in
          let resume what snap =
            let code, out, _ = verify [ "--resume"; snap ] in
            Alcotest.(check int) (what ^ ": exit code") 0 code;
            Alcotest.(check string) (what ^ ": stdout") full out
          in
          resume "plain cut" (cut "cut1.snap" []);
          (* a --cache miss keeps its snapshot, which resumes without the
             store *)
          let snap = cut "cut2.snap" [ "--cache"; Filename.concat dir "store" ] in
          resume "cut under --cache" snap;
          let refused what text diagnostic =
            let path = Filename.concat dir what in
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            let code, _, err = verify [ "--resume"; path ] in
            Alcotest.(check int) (what ^ ": exit code") 3 code;
            Alcotest.(check string) (what ^ ": stderr")
              (Printf.sprintf "psv: cannot resume from %s: %s\n" path diagnostic)
              err
          in
          (* one flipped payload byte: the frame's digest refuses it *)
          let flipped =
            Bytes.of_string (In_channel.with_open_bin snap In_channel.input_all)
          in
          let i = Bytes.length flipped / 2 in
          Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 1));
          refused "flipped.snap" (Bytes.to_string flipped)
            "corrupt snapshot: payload digest mismatch";
          (* the marshalled format of older builds, refused by its version *)
          refused "old.snap" "PSVSNAP3\n00000000000000000000000000000000\n0\n"
            "snapshot version PSVSNAP3 is not readable by this build (wants \
             PSVSNAP4); re-run the query without --resume to regenerate it"))

let suite =
  [ Alcotest.test_case "verify --json: sup, bound held, bound refuted" `Quick
      test_verify_json;
    Alcotest.test_case "verify --json: interrupted with a checkpoint" `Quick
      test_verify_json_interrupted;
    Alcotest.test_case "one row: verify --json = check -e" `Quick test_one_row;
    Alcotest.test_case "check -e: rows, counterexample, summary" `Quick
      test_check_expr;
    Alcotest.test_case "check -e: usage and parse errors exit 3" `Quick
      test_check_expr_usage;
    Alcotest.test_case "query parse error: check -e and watch -q" `Quick
      test_query_parse_error;
    Alcotest.test_case "unwritable fuzz and codegen outputs exit 3" `Quick
      test_unwritable_outputs;
    Alcotest.test_case "pipe and FIFO inputs" `Quick test_pipe_and_fifo;
    Alcotest.test_case "over-long numbers: serve and check -e" `Quick
      test_over_long_numbers;
    Alcotest.test_case "verify: checkpoint, resume, refused snapshots" `Quick
      test_checkpoint_resume;
    Alcotest.test_case "sweep-schemes --json and --points-out" `Quick
      test_sweep_json;
    Alcotest.test_case "sweep-schemes --points-out on a full disk" `Quick
      test_points_out_full_disk ]
