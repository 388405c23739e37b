(* serve-mix: an embedded Netserve listener on a Unix socket (one
   worker domain, queue 64, warm store) under a closed loop of two
   clients, each sending its next request when the previous answer
   arrives -- the callers (CI scripts, psv watch) wait for their reply.
   Nine in ten requests are store hits on the GPCA PSM (the four
   reachability queries of serve_load plus the three Table-I sups); one
   in ten is a unique bounded query on the periodic railroad PSM, a miss
   that explores ~2k states and writes an entry.  Hits never reach the
   explorer, so explorer changes must leave hit latency unchanged.  An
   op is one request.  Set-up is model build, store warm-up and
   listener start. *)

open Common

let clients = 2
let miss_every = 10

let hit_queries () =
  let ceiling = gpca_ceiling () in
  let bolus = Gpca.Model.bolus_req and start = Gpca.Model.start_infusion in
  List.map Mc.Query.to_string
    [ Result.get_ok (Mc.Query.parse "E<> Pump_IO.Infusing");
      Result.get_ok (Mc.Query.parse "E<> Patient.Observing");
      Result.get_ok (Mc.Query.parse "A[] not (Pump_IO.Infusing and Patient.Rest)");
      Result.get_ok (Mc.Query.parse "E<> (Pump_IO.Idle and Patient.Rest)");
      sup_query ~trigger:bolus ~response:(Transform.Names.input_chan bolus)
        ~ceiling;
      sup_query ~trigger:(Transform.Names.output_chan start) ~response:start
        ~ceiling;
      sup_query ~trigger:bolus ~response:start ~ceiling ]
  |> Array.of_list

let miss_query bound =
  Mc.Query.to_string
    (Mc.Query.Bounded_response
       { trigger = "m_Train"; response = "c_GateDown"; bound })

(* The request stream of one client: deterministic in (seed, client). *)
type request = { rq_id : int; rq_model : string; rq_query : string; rq_hit : int option }

let stream ~seed ~hits client =
  let rng = Random.State.make [| seed; client |] in
  fun k ->
    let rq_id = (client * 1_000_000) + k in
    if k mod miss_every = miss_every - 1 then
      (* unique per request, so always a miss; every bound is above the
         railroad's sup of 57, so every answer holds *)
      { rq_id; rq_model = "railroad"; rq_hit = None;
        rq_query =
          miss_query (1_000 + ((seed mod 1_000) * 1_000_000) + rq_id) }
    else
      let i = Random.State.int rng (Array.length hits) in
      { rq_id; rq_model = "gpca"; rq_query = hits.(i); rq_hit = Some i }

let line rq =
  Store.Json.to_string
    (Store.Json.Obj
       [ ("id", Store.Json.Int rq.rq_id);
         ("model", Store.Json.String rq.rq_model);
         ("query", Store.Json.String rq.rq_query) ])

(* --- answers -------------------------------------------------------------- *)

type expected = { hit_answers : string array; miss_answer : string }

(* The reply's outcome and counts, as they must read.  Misses are judged
   on the outcome only: their counts are those of a fresh run. *)
let reply_text j =
  let open Store.Json in
  let get name = Option.value ~default:Null (member name j) in
  Printf.sprintf "%s %s %s" (to_string (get "status")) (to_string (get "outcome"))
    (to_string (get "stats"))

let miss_text j =
  let open Store.Json in
  let get name = Option.value ~default:Null (member name j) in
  Printf.sprintf "%s %s" (to_string (get "status")) (to_string (get "outcome"))

(* Hits must read as a direct evaluation does; a miss's bound is at
   least 1000, so it holds exactly when the railroad's sup is below. *)
let expected ~gpca ~railroad hits =
  let hit q =
    let r = Mc.Query.eval gpca (Result.get_ok (Mc.Query.parse q)) in
    Printf.sprintf "\"ok\" %s %s"
      (outcome_text r.Mc.Query.res_outcome)
      (Store.Json.to_string
         (Store.Entry.stats_to_json
            (Analysis.Qcache.stats_to_entry r.Mc.Query.res_stats)))
  in
  let sup =
    Mc.Query.eval railroad
      (sup_query ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320)
  in
  let miss =
    match sup.Mc.Query.res_outcome with
    | Mc.Query.Sup (Mc.Explorer.Sup (v, _)) when v < 1_000 -> Mc.Query.Holds
    | _ -> Mc.Query.Fails None
  in
  { hit_answers = Array.map hit hits;
    miss_answer = Printf.sprintf "\"ok\" %s" (outcome_text miss) }

let judge ex rq j =
  match rq.rq_hit with
  | Some i -> reply_text j = ex.hit_answers.(i)
  | None -> miss_text j = ex.miss_answer

(* --- the socket ----------------------------------------------------------- *)

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

(* One request, one reply line; [None] on EOF or after [timeout_s]. *)
let roundtrip ?(timeout_s = 30.) fd buf text =
  let text = text ^ "\n" in
  let rec send off =
    if off < String.length text then
      send (off + Unix.write_substring fd text off (String.length text - off))
  in
  send 0;
  let chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec recv () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else (
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> recv ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()))
  in
  recv ()

type server = {
  sv_cache : Analysis.Qcache.t;
  sv_dir : string;
  sv_sock : string;
  sv_drain : Analysis.Serve.drain;
  sv_domain : (Analysis.Netserve.outcome, string) Stdlib.result Domain.t;
  sv_gpca : Ta.Model.network;
  sv_railroad : Ta.Model.network;
  sv_load_model : string -> (Ta.Model.network, string) Stdlib.result;
}

let stop sv =
  Analysis.Serve.request_drain sv.sv_drain;
  ignore (Domain.join sv.sv_domain);
  rm_rf sv.sv_dir;
  (try Sys.remove sv.sv_sock with Sys_error _ -> ())

let start ~scratch ~hits () =
  let gpca = gpca_psm () in
  let railroad =
    railroad_psm ~headway:300 ~invocation:(Scheme.Periodic 25)
  in
  let dir = fresh_dir scratch "serve-store" in
  let cache = open_cache dir in
  (* warm the store: every hit query evaluated once into it *)
  Array.iter
    (fun q ->
      ignore (Analysis.Qcache.eval cache gpca (Result.get_ok (Mc.Query.parse q))))
    hits;
  let sock = dir ^ ".sock" in
  let load_model = function
    | "gpca" -> Ok gpca
    | "railroad" -> Ok railroad
    | name -> Error ("unknown model " ^ name)
  in
  let ncfg =
    { Analysis.Netserve.default_config with
      Analysis.Netserve.ns_addr = Analysis.Netserve.Unix_path sock;
      ns_serve = { Analysis.Serve.default_config with Analysis.Serve.sv_jobs = 1 };
      ns_queue = 64 }
  in
  let drain = Analysis.Serve.drain () in
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Analysis.Netserve.listen ncfg ~cache ~drain
          ~on_ready:(fun _ -> Atomic.set ready true)
          ~load_model ())
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let sv =
    { sv_cache = cache; sv_dir = dir; sv_sock = sock; sv_drain = drain;
      sv_domain = domain; sv_gpca = gpca; sv_railroad = railroad;
      sv_load_model = load_model }
  in
  if not (Atomic.get ready) then begin
    stop sv;
    failwith "serve-mix: the listener did not come up"
  end;
  sv

(* --- the closed loop ------------------------------------------------------ *)

type sample = { s_ms : float; s_hit : bool; s_ok : bool }

(* Segments of closed-loop load, each bracketed by host-speed gauge
   readings while the clients are idle. *)
let segment_ms = 100.

(* Two client threads, each on its own connection, until [seconds] have
   passed.  Returns the samples with scaled latencies, the scaled wall
   time of the load, and the raw latencies. *)
let load ~seconds ~seed ~hits ex sv =
  let conns = Array.init clients (fun _ -> (connect sv.sv_sock, Buffer.create 4096)) in
  let next = Array.init clients (stream ~seed ~hits) in
  let sent = Array.make clients 0 in
  let client c deadline acc () =
    let fd, buf = conns.(c) in
    let rec go () =
      if now_ns () < deadline then begin
        let rq = next.(c) sent.(c) in
        sent.(c) <- sent.(c) + 1;
        let s0 = now_ns () in
        let reply = roundtrip fd buf (line rq) in
        let ms = ms_since s0 in
        let ok =
          match Option.map Store.Json.parse reply with
          | Some (Ok j) -> judge ex rq j
          | Some (Error _) | None -> false
        in
        if not ok then
          prerr_endline
            ("perfbench: serve-mix request " ^ line rq ^ " answered "
            ^ Option.value reply ~default:"(nothing)");
        acc.(c) <- { s_ms = ms; s_hit = rq.rq_hit <> None; s_ok = ok } :: acc.(c);
        go ()
      end
    in
    go ()
  in
  let samples = ref [] and raw = ref [] and wall = ref 0. in
  let before = ref (gauge ()) in
  let t0 = now_ns () in
  while ms_since t0 < 1000. *. seconds do
    let acc = Array.make clients [] in
    let s0 = now_ns () in
    let deadline = s0 + int_of_float (segment_ms *. 1e6) in
    List.iter Thread.join
      (List.init clients (fun c -> Thread.create (client c deadline acc) ()));
    let seg_ms = ms_since s0 in
    let after = gauge () in
    let k = scale ~before:!before ~after in
    before := after;
    wall := !wall +. (seg_ms *. k);
    Array.iter
      (List.iter (fun s ->
           raw := s.s_ms :: !raw;
           samples := { s with s_ms = s.s_ms *. k } :: !samples))
      acc
  done;
  Array.iter (fun (fd, _) -> Unix.close fd) conns;
  (!samples, !wall, !raw)

let stats_frame sv =
  let fd = connect sv.sv_sock and buf = Buffer.create 4096 in
  let reply = roundtrip fd buf {|{"id": "perfbench-stats", "stats": true}|} in
  Unix.close fd;
  match Option.map Store.Json.parse reply with
  | Some (Ok j) -> Option.value ~default:Store.Json.Null (Store.Json.member "stats" j)
  | Some (Error _) | None -> Store.Json.Null

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Store.Json.member k j) (fun v -> path v rest)

let num j keys = Option.value ~default:nan (Option.bind (path j keys) Store.Json.to_float)

let lat samples ~hit =
  List.filter_map (fun s -> if s.s_hit = hit then Some s.s_ms else None) samples

(* --- in-process replay (traced runs) -------------------------------------- *)

(* The same kind of request stream through prepare / evaluate / reply
   directly, on the server's warm store: the pipeline without the socket
   and event loop.  Its own stream (client index [clients]) keeps the
   misses unique; [first] continues it across calls. *)
let replay ~seconds ~seed ~hits ~first ex sv tally =
  let next = stream ~seed ~hits clients in
  let load_model = sv.sv_load_model in
  let cfg = Analysis.Serve.default_config and cache = sv.sv_cache in
  let evaluate_ms = ref [] and kinds = ref [] in
  let op k =
    let rq = next (first + k) in
    let text, ms =
      time_ms (fun () ->
          Trace.span ~req:rq.rq_id ~layer:"bench" "request" (fun () ->
              let prepared =
                Trace.span ~req:rq.rq_id ~layer:"serve.prepare" "prepare" (fun () ->
                    Analysis.Serve.prepare cfg ~cache ~load_model (line rq))
              in
              let reply, eval_ms =
                time_ms (fun () ->
                    Trace.span ~req:rq.rq_id ~layer:"serve.evaluate" "evaluate"
                      (fun () -> Analysis.Serve.evaluate cfg ~cache prepared))
              in
              if rq.rq_hit = None then evaluate_ms := eval_ms :: !evaluate_ms;
              Trace.span ~req:rq.rq_id ~layer:"serve.reply" "reply" (fun () ->
                  Store.Json.to_string (fst (Analysis.Serve.reply_json ~cache reply)))))
    in
    check tally
      (match Store.Json.parse text with Ok j -> judge ex rq j | Error _ -> false)
      "serve-mix in-process %s answered %s" (line rq) text;
    kinds := (rq.rq_hit <> None) :: !kinds;
    ms
  in
  let scaled, _ = window ~seconds op in
  (List.combine (List.rev !kinds) scaled, !evaluate_ms)

(* --- the workload --------------------------------------------------------- *)

let run cfg =
  let tally = tally () in
  let hits = hit_queries () in
  let sv, setup_ms =
    repeated_setup ~dispose:stop (start ~scratch:cfg.scratch ~hits)
  in
  Fun.protect ~finally:(fun () -> stop sv) @@ fun () ->
  let ex = expected ~gpca:sv.sv_gpca ~railroad:sv.sv_railroad hits in
  let seconds = if cfg.trace then cfg.seconds /. 3. else cfg.seconds in
  let samples, wall_ms, raw = load ~seconds ~seed:cfg.seed ~hits ex sv in
  List.iter (fun s -> check tally s.s_ok "serve-mix request (see above)") samples;
  let stats = stats_frame sv in
  check tally (stats <> Store.Json.Null) "serve-mix: no stats frame";
  let hit_ms = lat samples ~hit:true and miss_ms = lat samples ~hit:false in
  let rps = float_of_int (List.length samples) /. (wall_ms /. 1000.) in
  let report =
    [ ("requests", Store.Json.Int (List.length samples));
      raw_report raw;
      heap_report ();
      ("rps", Store.Json.Float rps);
      ("hit_p50_ms", Store.Json.Float (percentile hit_ms 0.5));
      ("hit_p99_ms", Store.Json.Float (percentile hit_ms 0.99));
      ("miss_p50_ms", Store.Json.Float (percentile miss_ms 0.5));
      ( "qcache.hit_ratio",
        Store.Json.Float
          (num stats [ "cache"; "hits" ]
          /. (num stats [ "cache"; "hits" ] +. num stats [ "cache"; "misses" ])) );
      ("admission.shed", Store.Json.Float (num stats [ "queue"; "shed" ]));
      ("metrics.server_p50_ms", Store.Json.Float (num stats [ "latency_ms"; "p50" ])) ]
  in
  if not cfg.trace then
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics =
        end_to_end ~setup_ms ~op_ms:(List.map (fun s -> s.s_ms) samples) ~ops_per_s:rps;
      report }
  else begin
    let plain, _ = replay ~seconds ~seed:cfg.seed ~hits ~first:0 ex sv tally in
    Trace.enabled := true;
    let traced, evaluate_ms =
      replay ~seconds ~seed:cfg.seed ~hits ~first:(List.length plain) ex sv tally
    in
    Trace.enabled := false;
    let ledger, coverage = Trace.ledger () in
    let ip_hit = List.filter_map (fun (hit, ms) -> if hit then Some ms else None) plain in
    let overhead = median (List.map snd traced) /. median (List.map snd plain) in
    let probes =
      Array.to_list
        (Array.mapi
           (fun i q ->
             { p_name = Printf.sprintf "hit-%d" i; p_net = sv.sv_gpca;
               p_query = Result.get_ok (Mc.Query.parse q) })
           hits)
      @ [ { p_name = "miss"; p_net = sv.sv_railroad;
            p_query = Result.get_ok (Mc.Query.parse (miss_query 999)) } ]
    in
    let peak_mb = peak_heap_mb () in
    let acc = Layers.run tally ~scratch:cfg.scratch probes in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = Layers.metrics acc ~peak_mb ~coverage ~overhead;
      report =
        report
        @ [ ("in_process_hit_p50_ms", Store.Json.Float (percentile ip_hit 0.5));
            ( "netserve.overhead_p50_ms",
              Store.Json.Float (percentile hit_ms 0.5 -. percentile ip_hit 0.5) );
            ( "netserve.overhead_p99_ms",
              Store.Json.Float (percentile hit_ms 0.99 -. percentile ip_hit 0.99) );
            ("serve.evaluate_ms", Store.Json.Float (median evaluate_ms));
            ( "ledger_ms",
              Store.Json.Obj (List.map (fun (l, ms) -> (l, Store.Json.Float ms)) ledger) )
          ] }
  end
