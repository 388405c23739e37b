(* Chaos tests of the socket front end: real Unix-domain sockets, a
   real event loop and worker pool in a spawned domain, and clients
   behaving badly — disconnecting mid-request, dribbling a partial
   line past the read deadline, flooding a tiny admission queue,
   being told to go away by the connection limit, and being drained
   out from under by SIGTERM's token.  Every client interaction is
   read with a deadline, so a server that hangs fails the test
   instead of wedging the suite. *)

let tmp_counter = ref 0

let fresh_tmp prefix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !tmp_counter)

let with_store_dir f =
  let dir = fresh_tmp "psv_chnet_store" in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun g -> rm (Filename.concat path g)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with _ -> ()) (fun () -> f dir)

let net = lazy (Chaos_store.parse_net Chaos_store.model_text)

(* A genuinely slow evaluation (~1s): the GPCA bolus-only PSM's
   response-time sup query explores the full platform-level zone
   graph.  Used to hold a worker busy while clients misbehave. *)
let slow_net =
  lazy (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only Gpca.Params.default)

let slow_query = "sup: m_BolusReq -> c_StartInfusion ceiling 3000"

let load_model name =
  if name = "m" then Ok (Lazy.force net)
  else if name = "gpca" then Ok (Lazy.force slow_net).Transform.psm_net
  else Error (Printf.sprintf "unknown model %S" name)

let request ?(model = "m") ~id query =
  Printf.sprintf "{\"id\": %d, \"model\": %S, \"query\": %S}" id model query

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

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let int_id j =
  match member "id" j with
  | Store.Json.Int n -> n
  | j -> Alcotest.failf "expected an int id, got %s" (Store.Json.to_string j)

(* --- server harness ------------------------------------------------------- *)

let default_ncfg path =
  { Analysis.Netserve.default_config with
    Analysis.Netserve.ns_addr = Analysis.Netserve.Unix_path path }

(* Run a listener in its own domain; hand the client body the socket
   path and the drain token; always drain and join on the way out. *)
let with_server ?(ncfg = default_ncfg) ?cache f =
  let path = fresh_tmp "psv_chnet_sock" in
  let cfg = ncfg path in
  let drain = Analysis.Serve.drain () in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Analysis.Netserve.listen cfg ?cache ~drain
          ~on_ready:(fun _ -> Atomic.set ready true)
          ~load_model ())
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get ready) then begin
    Analysis.Serve.request_drain drain;
    ignore (Domain.join server);
    Alcotest.fail "server did not come up"
  end;
  let result =
    Fun.protect
      ~finally:(fun () -> Analysis.Serve.request_drain drain)
      (fun () -> f path drain)
  in
  match Domain.join server with
  | Error msg -> Alcotest.failf "listen: %s" msg
  | Ok outcome -> (outcome, result)

(* --- client --------------------------------------------------------------- *)

type client = { fd : Unix.file_descr; rbuf : Buffer.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; rbuf = Buffer.create 256 }

let close cl = try Unix.close cl.fd with Unix.Unix_error _ -> ()

let send cl s = ignore (Unix.write_substring cl.fd s 0 (String.length s))
let send_line cl s = send cl (s ^ "\n")

let take_line cl =
  let s = Buffer.contents cl.rbuf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear cl.rbuf;
    Buffer.add_string cl.rbuf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

(* [`Line l | `Eof] within [timeout_s], or the test fails — a wedged
   server can never hang the suite. *)
let recv ?(timeout_s = 30.) cl =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Bytes.create 4096 in
  let rec go () =
    match take_line cl with
    | Some l -> `Line l
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Alcotest.fail "timed out waiting for a response line"
      else (
        match Unix.select [ cl.fd ] [] [] (Float.min left 0.5) with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read cl.fd buf 0 (Bytes.length buf) with
          | 0 -> `Eof
          | n ->
            Buffer.add_subbytes cl.rbuf buf 0 n;
            go ()
          | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Eof))
  in
  go ()

let recv_line ?timeout_s cl =
  match recv ?timeout_s cl with
  | `Line l -> l
  | `Eof -> Alcotest.fail "connection closed while expecting a response"

let recv_eof ?timeout_s cl =
  match recv ?timeout_s cl with
  | `Eof -> ()
  | `Line l -> Alcotest.failf "expected EOF, got: %s" l

(* --- batch and socket render byte-identical responses ---------------------- *)

let test_matches_batch () =
  let requests =
    [ request ~id:1 "E<> P.Busy";
      request ~id:2 ~model:"nope" "E<> P.Busy";
      "{not json";
      request ~id:3 "query: what";
      request ~id:4 "A[] P.Idle" ]
  in
  (* batch mode: each request in its own batch, so response order is
     the request order regardless of evaluation speed *)
  let batch_out = ref [] in
  let input = ref (List.concat_map (fun r -> [ r; "" ]) requests) in
  let read_line () =
    match !input with
    | [] -> None
    | l :: rest ->
      input := rest;
      Some l
  in
  let _ =
    Analysis.Serve.run Analysis.Serve.default_config ~load_model ~read_line
      ~write_line:(fun s -> batch_out := s :: !batch_out)
      ()
  in
  let batch_out = List.rev !batch_out in
  (* socket mode: one request at a time on one connection *)
  let _, socket_out =
    with_server (fun path _drain ->
        let cl = connect path in
        Fun.protect
          ~finally:(fun () -> close cl)
          (fun () ->
            List.map
              (fun r ->
                send_line cl r;
                recv_line cl)
              requests))
  in
  List.iter2
    (Alcotest.(check string) "batch and socket responses are byte-identical")
    batch_out socket_out

(* --- many concurrent connections share the pool and the cache -------------- *)

(* 4 and 8 clients: more connections than worker domains, all on one
   store *)
let test_concurrent_conns () =
  List.iter
    (fun n ->
      with_store_dir (fun dir ->
          let store =
            match Store.Disk.open_ dir with
            | Ok s -> s
            | Error msg -> Alcotest.failf "open_: %s" msg
          in
          let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) store in
          let outcome, () =
            with_server ~cache (fun path _drain ->
                let clients = List.init n (fun i -> (i, connect path)) in
                Fun.protect
                  ~finally:(fun () -> List.iter (fun (_, c) -> close c) clients)
                  (fun () ->
                    (* everyone asks the same three queries: the first
                       client to evaluate populates the store, the rest
                       hit it *)
                    List.iter
                      (fun (i, cl) ->
                        send_line cl (request ~id:((i * 10) + 1) "E<> P.Busy");
                        send_line cl (request ~id:((i * 10) + 2) "A[] P.Idle");
                        send_line cl
                          (request ~id:((i * 10) + 3) "E<> (P.Idle and Q.S)"))
                      clients;
                    List.iter
                      (fun (i, cl) ->
                        let got =
                          List.init 3 (fun _ -> parse_response (recv_line cl))
                        in
                        List.iter
                          (fun j ->
                            Alcotest.(check string) "status ok" "ok" (status j))
                          got;
                        let ids = List.sort compare (List.map int_id got) in
                        Alcotest.(check (list int))
                          "each connection gets exactly its own ids"
                          [ (i * 10) + 1; (i * 10) + 2; (i * 10) + 3 ]
                          ids)
                      clients))
          in
          Alcotest.(check int)
            (Printf.sprintf "%d responses" (3 * n))
            (3 * n) outcome.Analysis.Netserve.no_served;
          Alcotest.(check int)
            (Printf.sprintf "%d connections" n)
            n outcome.Analysis.Netserve.no_conns;
          Alcotest.(check int) "no errors" 0
            outcome.Analysis.Netserve.no_errors))
    [ 4; 8 ]

(* --- a client that vanishes mid-request harms nobody ----------------------- *)

let test_disconnect_mid_request () =
  let ncfg path =
    { (default_ncfg path) with
      Analysis.Netserve.ns_serve =
        { Analysis.Serve.default_config with Analysis.Serve.sv_jobs = 1 } }
  in
  let outcome, () =
    with_server ~ncfg (fun path _drain ->
        let cl = connect path in
        send_line cl (request ~id:1 ~model:"gpca" slow_query);
        (* give the event loop a moment to admit it, then vanish *)
        Unix.sleepf 0.2;
        close cl;
        (* the server keeps serving: a fresh connection gets answers
           (queued behind the orphaned evaluation, which is the point —
           the worker finishes it and discards the response) *)
        let cl2 = connect path in
        Fun.protect
          ~finally:(fun () -> close cl2)
          (fun () ->
            send_line cl2 (request ~id:2 "E<> P.Busy");
            let r = parse_response (recv_line cl2) in
            Alcotest.(check int) "follow-up answered" 2 (int_id r);
            Alcotest.(check string) "status ok" "ok" (status r)))
  in
  (* both the orphaned verdict and the follow-up count as served *)
  Alcotest.(check int) "both requests answered" 2
    outcome.Analysis.Netserve.no_served

(* --- slowloris: a partial line cannot hold a connection forever ------------ *)

let test_slowloris () =
  let ncfg path =
    { (default_ncfg path) with Analysis.Netserve.ns_read_deadline_s = 0.3 }
  in
  let _outcome, () =
    with_server ~ncfg (fun path _drain ->
        let slow = connect path in
        let healthy = connect path in
        Fun.protect
          ~finally:(fun () ->
            close slow;
            close healthy)
          (fun () ->
            (* half a request, never a newline *)
            send slow "{\"id\": 99, \"model";
            (* past the deadline: a diagnosed error frame, then EOF *)
            let r = parse_response (recv_line ~timeout_s:10. slow) in
            Alcotest.(check string) "slowloris gets an error frame" "error"
              (status r);
            let msg = str (member "error" r) in
            Alcotest.(check bool)
              (Printf.sprintf "error names the deadline: %s" msg)
              true
              (contains ~sub:"read deadline" msg);
            recv_eof ~timeout_s:10. slow;
            (* the deadline is per-connection: the idle-but-silent
               healthy client is untouched and still served *)
            send_line healthy (request ~id:7 "E<> P.Busy");
            let h = parse_response (recv_line healthy) in
            Alcotest.(check int) "healthy client unaffected" 7 (int_id h);
            Alcotest.(check string) "and answered ok" "ok" (status h)))
  in
  ()

(* --- a full admission queue sheds loudly, never hangs ---------------------- *)

(* One connection, then eight: the queue is shared, so a burst on one
   connection must shed the others' requests too. *)
let test_queue_shed () =
  let ncfg path =
    { (default_ncfg path) with
      Analysis.Netserve.ns_queue = 1;
      ns_serve =
        { Analysis.Serve.default_config with Analysis.Serve.sv_jobs = 1 } }
  in
  List.iter
    (fun n ->
      let outcome, () =
        with_server ~ncfg (fun path _drain ->
            let clients = List.init n (fun _ -> connect path) in
            Fun.protect
              ~finally:(fun () -> List.iter close clients)
              (fun () ->
                (* six slow requests per connection in one burst against
                   queue capacity 1 and one worker: at most two can be in
                   flight or queued; the rest must come back as busy
                   frames immediately *)
                List.iter
                  (fun cl ->
                    send cl
                      (String.concat ""
                         (List.init 6 (fun i ->
                              request ~id:(i + 1) ~model:"gpca" slow_query
                              ^ "\n"))))
                  clients;
                List.iter
                  (fun cl ->
                    let replies =
                      List.init 6 (fun _ ->
                          parse_response (recv_line ~timeout_s:60. cl))
                    in
                    let ids = List.sort compare (List.map int_id replies) in
                    Alcotest.(check (list int)) "every request answered"
                      [ 1; 2; 3; 4; 5; 6 ] ids;
                    let busy, rest =
                      List.partition (fun j -> status j = "busy") replies
                    in
                    Alcotest.(check bool)
                      (Printf.sprintf "most of the burst shed (%d busy)"
                         (List.length busy))
                      true
                      (List.length busy >= 3);
                    List.iter
                      (fun j ->
                        Alcotest.(check string) "admitted requests answered ok"
                          "ok" (status j))
                      rest;
                    List.iter
                      (fun j ->
                        let msg = str (member "error" j) in
                        Alcotest.(check bool) "busy frame is diagnosed" true
                          (String.length msg > 0))
                      busy)
                  clients))
      in
      Alcotest.(check bool)
        (Printf.sprintf "outcome counted the shed (%d of %d)"
           outcome.Analysis.Netserve.no_shed (6 * n))
        true
        (outcome.Analysis.Netserve.no_shed >= 3 * n))
    [ 1; 8 ]

(* --- per-connection fairness: one client cannot hog the queue -------------- *)

let test_inflight_cap () =
  (* queue 64 never sheds on capacity; the per-connection cap of 1 is
     what refuses the excess.  One worker on a ~1s query guarantees the
     event loop reads the whole burst before any completion returns. *)
  let ncfg path =
    { (default_ncfg path) with
      Analysis.Netserve.ns_queue = 64;
      ns_max_inflight = 1;
      ns_serve =
        { Analysis.Serve.default_config with Analysis.Serve.sv_jobs = 1 } }
  in
  let outcome, () =
    with_server ~ncfg (fun path _drain ->
        let greedy = connect path in
        Fun.protect
          ~finally:(fun () -> close greedy)
          (fun () ->
            let burst =
              String.concat ""
                (List.init 5 (fun i ->
                     request ~id:(i + 1) ~model:"gpca" slow_query ^ "\n"))
            in
            send greedy burst;
            (* a polite client on another connection is served while the
               greedy one's slow request is still being evaluated *)
            let polite = connect path in
            Fun.protect
              ~finally:(fun () -> close polite)
              (fun () ->
                send_line polite (request ~id:100 "E<> P.Busy");
                let r = parse_response (recv_line ~timeout_s:60. polite) in
                Alcotest.(check int) "other connections stay served" 100
                  (int_id r));
            let replies =
              List.init 5 (fun _ ->
                  parse_response (recv_line ~timeout_s:60. greedy))
            in
            let ids = List.sort compare (List.map int_id replies) in
            Alcotest.(check (list int)) "every request answered"
              [ 1; 2; 3; 4; 5 ] ids;
            let busy, rest =
              List.partition (fun j -> status j = "busy") replies
            in
            (* cap 1: exactly one admitted, the other four refused *)
            Alcotest.(check int) "excess refused" 4 (List.length busy);
            List.iter
              (fun j ->
                Alcotest.(check string) "the admitted request completes" "ok"
                  (status j))
              rest;
            List.iter
              (fun j ->
                let msg = str (member "error" j) in
                Alcotest.(check bool)
                  (Printf.sprintf "busy frame names the in-flight cap: %s" msg)
                  true
                  (contains ~sub:"in-flight" msg))
              busy))
  in
  Alcotest.(check int) "outcome counted the refusals" 4
    outcome.Analysis.Netserve.no_shed

(* --- drain under load: every admitted request answered, store clean -------- *)

(* The test holds the gpca search at a gate instead of guessing how long
   it runs: the explorer's progress hook (first called 1000 states in)
   parks the worker until the test opens the gate, which it does only
   after [request_drain].  The three requests go out in one write, so
   the event loop admits all of them in the read that admits request 1,
   long before that search reaches the gate. *)
let test_drain_under_load () =
  let at_gate = Atomic.make false and opened = Atomic.make false in
  let gate _ =
    Atomic.set at_gate true;
    let deadline = Unix.gettimeofday () +. 30. in
    while (not (Atomic.get opened)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done
  in
  Mc.Explorer.set_progress_hook (Some gate);
  Fun.protect
    ~finally:(fun () ->
      Atomic.set opened true;
      Mc.Explorer.set_progress_hook None)
  @@ fun () ->
  with_store_dir (fun dir ->
      let store =
        match Store.Disk.open_ dir with
        | Ok s -> s
        | Error msg -> Alcotest.failf "open_: %s" msg
      in
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) store in
      let ncfg path =
        { (default_ncfg path) with
          Analysis.Netserve.ns_serve =
            { Analysis.Serve.default_config with Analysis.Serve.sv_jobs = 1 }
        }
      in
      let outcome, () =
        with_server ~ncfg ~cache (fun path drain ->
            let cl = connect path in
            Fun.protect
              ~finally:(fun () -> close cl)
              (fun () ->
                send cl
                  (String.concat ""
                     (List.map
                        (fun id -> request ~id ~model:"gpca" slow_query ^ "\n")
                        [ 1; 2; 3 ]));
                (* request 1 is running once its search is at the gate;
                   pull the plug, then let it see the cancellation *)
                let deadline = Unix.gettimeofday () +. 30. in
                while
                  (not (Atomic.get at_gate)) && Unix.gettimeofday () < deadline
                do
                  Unix.sleepf 0.001
                done;
                if not (Atomic.get at_gate) then
                  Alcotest.fail "the gpca search never reached the gate";
                Analysis.Serve.request_drain drain;
                Atomic.set opened true;
                let replies =
                  List.init 3 (fun _ ->
                      parse_response (recv_line ~timeout_s:30. cl))
                in
                let ids = List.sort compare (List.map int_id replies) in
                Alcotest.(check (list int))
                  "every admitted request was answered" [ 1; 2; 3 ] ids;
                List.iter
                  (fun j ->
                    Alcotest.(check string) "answered, not errored" "ok"
                      (status j);
                    let o = member "outcome" j in
                    Alcotest.(check string) "as unknown" "unknown"
                      (str (member "kind" o));
                    Alcotest.(check string) "because cancelled" "cancelled"
                      (str (member "tag" (member "reason" o))))
                  replies;
                recv_eof ~timeout_s:10. cl))
      in
      Alcotest.(check bool) "stopped by the drain" true
        (outcome.Analysis.Netserve.no_stop = Analysis.Netserve.Drained);
      (* cancelled verdicts are never persisted: the store must pass
         fsck with nothing in it *)
      let r = Store.Disk.fsck store in
      Alcotest.(check int) "no bad entries" 0
        (List.length r.Store.Disk.fk_bad);
      Alcotest.(check int) "no orphaned temp files" 0
        (List.length r.Store.Disk.fk_tmp))

(* --- the stats frame ------------------------------------------------------- *)

let test_stats_frame () =
  with_store_dir (fun dir ->
      let store =
        match Store.Disk.open_ dir with
        | Ok s -> s
        | Error msg -> Alcotest.failf "open_: %s" msg
      in
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) store in
      let _outcome, () =
        with_server ~cache (fun path _drain ->
            let cl = connect path in
            Fun.protect
              ~finally:(fun () -> close cl)
              (fun () ->
                send_line cl (request ~id:1 "E<> P.Busy");
                ignore (recv_line cl);
                send_line cl (request ~id:2 "E<> P.Busy");
                ignore (recv_line cl);
                send_line cl "{\"id\": 3, \"stats\": true}";
                let r = parse_response (recv_line cl) in
                Alcotest.(check string) "status stats" "stats" (status r);
                let s = member "stats" r in
                let reqs = member "requests" s in
                (match member "received" reqs with
                | Store.Json.Int n ->
                  Alcotest.(check bool) "received >= 3" true (n >= 3)
                | j ->
                  Alcotest.failf "received not an int: %s"
                    (Store.Json.to_string j));
                let q = member "queue" s in
                (match member "capacity" q with
                | Store.Json.Int n ->
                  Alcotest.(check int) "queue capacity" 64 n
                | _ -> Alcotest.fail "queue capacity not an int");
                let conns = member "connections" s in
                (match member "active" conns with
                | Store.Json.Int 1 -> ()
                | j ->
                  Alcotest.failf "active connections: %s"
                    (Store.Json.to_string j));
                let cache_s = member "cache" s in
                let breaker = member "breaker" cache_s in
                Alcotest.(check string) "breaker closed" "closed"
                  (str (member "state" breaker));
                (* one miss then one hit landed above *)
                (match (member "hits" cache_s, member "misses" cache_s) with
                | Store.Json.Int h, Store.Json.Int m ->
                  Alcotest.(check bool)
                    (Printf.sprintf "hits %d, misses %d" h m)
                    true
                    (h >= 1 && m >= 1)
                | _ -> Alcotest.fail "cache counters not ints");
                ignore (member "latency_ms" s)))
      in
      ())

(* --- the connection cap answers before closing ----------------------------- *)

let test_conn_limit () =
  let ncfg path =
    { (default_ncfg path) with Analysis.Netserve.ns_max_conns = 1 }
  in
  let _outcome, () =
    with_server ~ncfg (fun path _drain ->
        let a = connect path in
        Fun.protect
          ~finally:(fun () -> close a)
          (fun () ->
            (* occupy the only slot *)
            send_line a (request ~id:1 "E<> P.Busy");
            ignore (recv_line a);
            let b = connect path in
            Fun.protect
              ~finally:(fun () -> close b)
              (fun () ->
                let r = parse_response (recv_line ~timeout_s:10. b) in
                Alcotest.(check string) "over the cap: a busy frame" "busy"
                  (status r);
                let msg = str (member "error" r) in
                Alcotest.(check bool)
                  (Printf.sprintf "busy frame names the limit: %s" msg)
                  true
                  (String.length msg > 0);
                recv_eof ~timeout_s:10. b);
            (* the occupant is still served *)
            send_line a (request ~id:2 "A[] P.Idle");
            let r = parse_response (recv_line a) in
            Alcotest.(check int) "occupant still served" 2 (int_id r)))
  in
  ()

let suite =
  [ Alcotest.test_case "batch and socket byte-identical" `Quick
      test_matches_batch;
    Alcotest.test_case "concurrent connections" `Quick test_concurrent_conns;
    Alcotest.test_case "disconnect mid-request" `Slow
      test_disconnect_mid_request;
    Alcotest.test_case "slowloris read deadline" `Quick test_slowloris;
    Alcotest.test_case "queue-full shedding" `Slow test_queue_shed;
    Alcotest.test_case "per-connection in-flight cap" `Slow test_inflight_cap;
    Alcotest.test_case "drain under load, store fsck-clean" `Slow
      test_drain_under_load;
    Alcotest.test_case "stats frame" `Quick test_stats_frame;
    Alcotest.test_case "connection limit" `Quick test_conn_limit ]
