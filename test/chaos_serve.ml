(* Chaos tests of the supervised serve loop, driven entirely in-process
   through scripted read/write callbacks: malformed and hostile input,
   crashing model loaders, per-request deadlines, the error trip wire,
   graceful drain, and the degraded-cache flag.  Every response must be
   well-formed JSON no matter what comes in. *)

let tmp_counter = ref 0

let with_store_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_chserve_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with _ -> ()) (fun () -> f dir)

let model_text = Chaos_store.model_text
let parse_net = Chaos_store.parse_net

let net = lazy (parse_net model_text)

let load_model name =
  if name = "m" then Ok (Lazy.force net)
  else if name = "over" then Ok (parse_net Test_query.over_text)
  else if name = "boom" then failwith "model loader exploded"
  else Error (Printf.sprintf "unknown model %S" name)

(* Run the loop over a scripted line list; returns the outcome and the
   response lines in order. *)
let run_serve ?(cfg = Analysis.Serve.default_config) ?cache ?drain lines =
  let input = ref lines in
  let out = ref [] in
  let read_line () =
    match !input with
    | [] -> None
    | l :: rest ->
      input := rest;
      Some l
  in
  let write_line s = out := s :: !out in
  let outcome =
    Analysis.Serve.run cfg ?cache ?drain ~load_model ~read_line ~write_line ()
  in
  (outcome, List.rev !out)

let parse_response line =
  match Store.Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response is not JSON (%s): %s" msg line

let member name j =
  match Store.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Store.Json.to_string j)

let str = function
  | Store.Json.String s -> s
  | j -> Alcotest.failf "expected a string, got %s" (Store.Json.to_string j)

let status j = str (member "status" j)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let request ?(model = "m") ~id query =
  Printf.sprintf "{\"id\": %d, \"model\": %S, \"query\": %S}" id model query

(* --- the happy path, batched, with a cache -------------------------------- *)

let test_ok_and_cached () =
  with_store_dir (fun dir ->
      let store =
        match Store.Disk.open_ dir with
        | Ok s -> s
        | Error msg -> Alcotest.failf "open_: %s" msg
      in
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) store in
      let outcome, out =
        run_serve ~cache
          [ request ~id:1 "E<> P.Busy";
            "";
            request ~id:2 "E<> P.Busy" ]
      in
      Alcotest.(check int) "two responses" 2 (List.length out);
      Alcotest.(check int) "served" 2 outcome.Analysis.Serve.sv_served;
      Alcotest.(check int) "no errors" 0 outcome.Analysis.Serve.sv_errors;
      Alcotest.(check bool) "stopped at eof" true
        (outcome.Analysis.Serve.sv_stop = Analysis.Serve.Eof);
      let r1 = parse_response (List.nth out 0) in
      let r2 = parse_response (List.nth out 1) in
      Alcotest.(check string) "first ok" "ok" (status r1);
      Alcotest.(check string) "second ok" "ok" (status r2);
      Alcotest.(check bool) "ids echoed" true
        (member "id" r1 = Store.Json.Int 1 && member "id" r2 = Store.Json.Int 2);
      Alcotest.(check bool) "first computed" true
        (member "cached" r1 = Store.Json.Bool false);
      Alcotest.(check bool) "second answered from the store" true
        (member "cached" r2 = Store.Json.Bool true);
      Alcotest.(check bool) "outcome present" true
        (str (member "kind" (member "outcome" r1)) = "holds"))

(* --- the error taxonomy: one bad request, one JSON error, next please ----- *)

let test_error_taxonomy () =
  let outcome, out =
    run_serve
      [ "{oops";
        "{\"id\": 3}";
        request ~id:4 ~model:"nope" "E<> P.Busy";
        request ~id:5 "sup: what even";
        request ~id:6 ~model:"boom" "E<> P.Busy";
        request ~id:7 "E<> Zzz.Qqq";
        request ~id:8 "E<> P.Busy" ]
  in
  Alcotest.(check int) "every line answered" 7 (List.length out);
  Alcotest.(check int) "errors counted" 6 outcome.Analysis.Serve.sv_errors;
  let rs = List.map parse_response out in
  List.iteri
    (fun i r ->
      let expected = if i = 6 then "ok" else "error" in
      Alcotest.(check string) (Printf.sprintf "response %d status" i) expected
        (status r))
    rs;
  let err_of i = str (member "error" (List.nth rs i)) in
  Alcotest.(check bool) "parse error reported" true
    (contains (err_of 0) "bad request");
  Alcotest.(check bool) "missing field reported" true
    (contains (err_of 1) "model");
  Alcotest.(check bool) "unknown model reported" true
    (contains (err_of 2) "nope");
  Alcotest.(check bool) "query error reported" true
    (contains (err_of 3) "query");
  (* the crashing loader is confined to its request *)
  Alcotest.(check bool) "loader crash diagnosed" true
    (contains (err_of 4) "exploded");
  (* an eval-time crash (unknown process) is confined to its request *)
  Alcotest.(check bool) "eval crash diagnosed" true
    (contains (err_of 5) "unknown process");
  (* ids still echoed on errors where the request supplied one *)
  Alcotest.(check bool) "error keeps its id" true
    (member "id" (List.nth rs 2) = Store.Json.Int 4);
  (* and the healthy request at the end of the batch still got answered *)
  Alcotest.(check bool) "survivor answered" true
    (member "id" (List.nth rs 6) = Store.Json.Int 8)

(* --- a number too long for an int: an error line, and the server lives -- *)

let test_overlong_number () =
  let outcome, out =
    run_serve
      [ request ~id:1 "sup: a -> b ceiling 99999999999999999999";
        request ~id:2 "E<> P.Busy" ]
  in
  Alcotest.(check int) "both answered" 2 (List.length out);
  Alcotest.(check int) "one error" 1 outcome.Analysis.Serve.sv_errors;
  let r1 = parse_response (List.nth out 0) in
  let r2 = parse_response (List.nth out 1) in
  Alcotest.(check string) "bad request refused" "error" (status r1);
  Alcotest.(check bool) "range diagnosed" true
    (contains (str (member "error" r1)) "out of range");
  Alcotest.(check string) "next request answered" "ok" (status r2)

(* --- an update leaving its variable's range: the plain message --------- *)

let test_range_violation () =
  let outcome, out =
    run_serve
      [ request ~id:1 ~model:"over" "A[] n <= 3"; request ~id:2 "E<> P.Busy" ]
  in
  Alcotest.(check int) "both answered" 2 (List.length out);
  Alcotest.(check int) "one error" 1 outcome.Analysis.Serve.sv_errors;
  let r1 = parse_response (List.nth out 0) in
  Alcotest.(check string) "violation refused" "error" (status r1);
  Alcotest.(check string) "plain message" Test_query.over_msg
    (str (member "error" r1));
  Alcotest.(check string) "next request answered" "ok"
    (status (parse_response (List.nth out 1)))

(* --- a ceiling past the largest clock constant: refused, not answered -- *)

let test_ceiling_past_maximum () =
  let at = Ta.Clockcons.max_constant in
  let outcome, out =
    run_serve
      [ request ~id:1 (Printf.sprintf "sup: a -> b ceiling %d" (at + 1));
        request ~id:2 (Printf.sprintf "sup: a -> b ceiling %d" at) ]
  in
  Alcotest.(check int) "both answered" 2 (List.length out);
  Alcotest.(check int) "one error" 1 outcome.Analysis.Serve.sv_errors;
  let r1 = parse_response (List.nth out 0) in
  let r2 = parse_response (List.nth out 1) in
  Alcotest.(check string) "oversized ceiling refused" "error" (status r1);
  Alcotest.(check bool) "limit named" true
    (contains (str (member "error" r1))
       "exceeds the largest supported clock constant");
  Alcotest.(check string) "ceiling at the maximum answered" "ok" (status r2)

(* --- hostile lines: over-long and invalid UTF-8 --------------------------- *)

let test_line_hygiene () =
  let cfg =
    { Analysis.Serve.default_config with
      Analysis.Serve.sv_max_request_bytes = 64 }
  in
  let long = "{\"id\": 1, \"query\": \"" ^ String.make 200 'x' ^ "\"}" in
  let bad_utf8 = "{\"model\": \"\xff\xfe\x80\", \"query\": \"E<> P.Busy\"}" in
  let outcome, out = run_serve ~cfg [ long; bad_utf8 ] in
  Alcotest.(check int) "both rejected" 2 outcome.Analysis.Serve.sv_errors;
  let rs = List.map parse_response out in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "over-long diagnosed" true
    (contains (str (member "error" (List.nth rs 0))) "too long");
  Alcotest.(check bool) "bad encoding diagnosed" true
    (contains (str (member "error" (List.nth rs 1))) "UTF-8");
  (* whatever the input was, the output stream stays valid UTF-8 *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "response is valid UTF-8" true
        (Analysis.Serve.utf8_valid line))
    out

(* --- per-request deadline -------------------------------------------------- *)

let test_request_timeout () =
  let cfg =
    { Analysis.Serve.default_config with
      Analysis.Serve.sv_request_timeout = Some 1e-9 }
  in
  let _, out = run_serve ~cfg [ request ~id:9 "E<> P.Busy" ] in
  let r = parse_response (List.hd out) in
  Alcotest.(check string) "an overrun is an answer, not an error" "ok"
    (status r);
  let o = member "outcome" r in
  Alcotest.(check string) "diagnosed unknown" "unknown"
    (str (member "kind" o));
  Alcotest.(check string) "with the time-budget reason" "time-budget"
    (str (member "tag" (member "reason" o)))

(* --- the error trip wire --------------------------------------------------- *)

let test_max_errors () =
  let cfg =
    { Analysis.Serve.default_config with
      Analysis.Serve.sv_max_errors = Some 1 }
  in
  let outcome, out =
    run_serve ~cfg
      [ "{bad"; "{worse"; ""; request ~id:1 "E<> P.Busy" ]
  in
  Alcotest.(check bool) "stopped by the trip wire" true
    (outcome.Analysis.Serve.sv_stop = Analysis.Serve.Error_limit);
  Alcotest.(check int) "the tripping batch was still answered in full" 2
    (List.length out);
  Alcotest.(check int) "errors" 2 outcome.Analysis.Serve.sv_errors;
  (* the request after the trip was never served *)
  Alcotest.(check int) "served" 2 outcome.Analysis.Serve.sv_served

(* --- graceful drain -------------------------------------------------------- *)

let test_drain () =
  let d = Analysis.Serve.drain () in
  let input = ref [ request ~id:1 "E<> P.Busy"; "" ] in
  let out = ref [] in
  let read_line () =
    match !input with
    | l :: rest ->
      input := rest;
      Some l
    | [] ->
      (* the signal arrives while we wait for more input *)
      Analysis.Serve.request_drain d;
      None
  in
  let outcome =
    Analysis.Serve.run Analysis.Serve.default_config ~drain:d ~load_model
      ~read_line
      ~write_line:(fun s -> out := s :: !out)
      ()
  in
  Alcotest.(check bool) "drained, not eof" true
    (outcome.Analysis.Serve.sv_stop = Analysis.Serve.Drained);
  Alcotest.(check int) "the flushed batch was answered" 1
    (List.length !out);
  Alcotest.(check string) "and answered correctly" "ok"
    (status (parse_response (List.hd !out)))

(* --- degraded cache is visible in every response --------------------------- *)

let test_degraded_flag () =
  with_store_dir (fun dir ->
      let store =
        match Store.Disk.open_ dir with
        | Ok s -> s
        | Error msg -> Alcotest.failf "open_: %s" msg
      in
      let breaker = Fault.Breaker.create ~threshold:1 () in
      Fault.Breaker.failure breaker;
      let cache =
        Analysis.Qcache.make ~warn:(fun _ -> ()) ~breaker store
      in
      let _, out = run_serve ~cache [ request ~id:1 "E<> P.Busy" ] in
      let r = parse_response (List.hd out) in
      Alcotest.(check string) "still answers" "ok" (status r);
      Alcotest.(check bool) "carries the degraded flag" true
        (member "degraded" r = Store.Json.Bool true))

let suite =
  [ Alcotest.test_case "ok and cached" `Quick test_ok_and_cached;
    Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
    Alcotest.test_case "over-long number" `Quick test_overlong_number;
    Alcotest.test_case "range violation" `Quick test_range_violation;
    Alcotest.test_case "ceiling past the maximum" `Quick
      test_ceiling_past_maximum;
    Alcotest.test_case "line hygiene" `Quick test_line_hygiene;
    Alcotest.test_case "request timeout" `Quick test_request_timeout;
    Alcotest.test_case "max errors trip wire" `Quick test_max_errors;
    Alcotest.test_case "graceful drain" `Quick test_drain;
    Alcotest.test_case "degraded flag" `Quick test_degraded_flag ]
