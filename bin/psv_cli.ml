(* psv — command-line front end to the platform-specific timing
   verification framework.

   Subcommands:
     table1         reproduce Table I of the paper (verify + simulate)
     verify         check or measure a response bound on a .xta model
     transform      build the PSM of a .xta PIM under a scheme
     bounds         print the analytic Lemma-1/2 bounds of a scheme
     sweep-schemes  grid sweep of implementation schemes, analytic
                    prefilter racing the zone explorer per point
     simulate       run the platform simulator on the GPCA case study
     export         write the GPCA PIM / PSM as .xta text

   Exit codes (verify/query/check):
     0  property proved / query holds / all queries pass
     1  property refuted
     2  unknown — a budget or ^C interrupted the search
     3  usage, parse or I/O error *)

open Cmdliner

(* usage, parse and I/O errors all leave through here: exit 3 is
   distinguishable from a refutation (1) and an interrupted search (2) *)
let die fmt = Fmt.kstr (fun msg -> Fmt.epr "psv: %s@." msg; exit 3) fmt

(* A whole file's bytes, read to end of file rather than to a length
   taken up front, so a pipe or a FIFO reads like a regular file.
   @raise Sys_error when it cannot be opened or read. *)
let slurp path = In_channel.with_open_bin path In_channel.input_all

let read_file path = try slurp path with Sys_error msg -> die "%s" msg

let write_out output text =
  match output with
  | None -> print_string text
  | Some path -> (
    try
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc text;
          (* a failed flush (a full disk) raises here, not in [finally] *)
          close_out oc)
    with Sys_error msg -> die "%s" msg)

let load_network path =
  match Xta.Parse.network (read_file path) with
  | Ok net -> net
  | Error msg -> die "%s: %s" path msg

(* --- scheme construction from CLI options ----------------------------- *)

(* [int_field] names both the malformed field and the whole spec, so a
   typo inside a repeated --input is traceable to the offending flag *)
let int_field ~flag ~spec ~field s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None ->
    die "bad %s %S: field %s is %S, expected an integer" flag spec field s

(* input spec syntax:  CHAN:interrupt:DMIN:DMAX
                    or CHAN:polling:INTERVAL:DMIN:DMAX *)
let parse_input_spec spec =
  let int = int_field ~flag:"--input" ~spec in
  match String.split_on_char ':' spec with
  | [ chan; "interrupt"; dmin; dmax ] ->
    (chan,
     Scheme.interrupt_input
       (Scheme.delay (int ~field:"DMIN" dmin) (int ~field:"DMAX" dmax)))
  | [ chan; "polling"; interval; dmin; dmax ] ->
    (chan,
     Scheme.polling_input ~interval:(int ~field:"INTERVAL" interval)
       (Scheme.delay (int ~field:"DMIN" dmin) (int ~field:"DMAX" dmax)))
  | _ ->
    die
      "bad --input %S (want CHAN:interrupt:DMIN:DMAX or \
       CHAN:polling:INTERVAL:DMIN:DMAX)"
      spec

(* output spec syntax: CHAN:DMIN:DMAX *)
let parse_output_spec spec =
  let int = int_field ~flag:"--output-dev" ~spec in
  match String.split_on_char ':' spec with
  | [ chan; dmin; dmax ] ->
    (chan,
     Scheme.pulse_output
       (Scheme.delay (int ~field:"DMIN" dmin) (int ~field:"DMAX" dmax)))
  | _ -> die "bad --output-dev %S (want CHAN:DMIN:DMAX)" spec

let parse_wcet spec =
  let int = int_field ~flag:"--wcet" ~spec in
  match String.split_on_char ':' spec with
  | [ lo; hi ] ->
    { Scheme.wcet_min = int ~field:"MIN" lo; wcet_max = int ~field:"MAX" hi }
  | _ -> die "bad --wcet %S (want MIN:MAX)" spec

let scheme_of_options ~inputs ~outputs ~period ~aperiodic_gap ~buffer ~shared
    ~read_one ~wcet =
  let invocation =
    match period, aperiodic_gap with
    | Some p, None -> Scheme.Periodic p
    | None, Some g -> Scheme.Aperiodic g
    | None, None -> Scheme.Periodic 100
    | Some _, Some _ -> die "--period and --aperiodic are exclusive"
  in
  let comm =
    if shared then Scheme.Shared_variable
    else
      Scheme.Buffer
        (buffer, if read_one then Scheme.Read_one else Scheme.Read_all)
  in
  { Scheme.is_name = "cli";
    is_inputs = List.map parse_input_spec inputs;
    is_outputs = List.map parse_output_spec outputs;
    is_input_comm = comm;
    is_output_comm = comm;
    is_invocation = invocation;
    is_exec = wcet }

(* --- run governance ---------------------------------------------------- *)

let budget_time_arg =
  Arg.(value & opt (some string) None
       & info [ "budget-time" ] ~docv:"DUR"
           ~doc:"Wall-clock budget (e.g. 500ms, 2s, 5m, 1h; bare numbers \
                 are seconds).  On exhaustion the search stops with an \
                 $(i,unknown) verdict, exit code 2.")

let budget_states_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-states" ] ~docv:"N"
           ~doc:"Visited-state budget; exceeded means verdict \
                 $(i,unknown), exit code 2.")

let budget_mem_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-mem" ] ~docv:"MB"
           ~doc:"Live-heap budget in megabytes (sampled); exceeded means \
                 verdict $(i,unknown), exit code 2.")

(* the three budget flags as one term; the budget is built (and a bad
   --budget-time reported) when a command asks for it *)
let budget_term =
  let make time states mem () =
    let b_time_s =
      Option.map
        (fun s ->
          match Mc.Runctl.parse_duration s with
          | Ok v -> v
          | Error msg -> die "bad --budget-time %S: %s" s msg)
        time
    in
    { Mc.Runctl.b_time_s;
      b_states = states;
      b_mem_bytes = Option.map (fun mb -> mb * 1024 * 1024) mem }
  in
  Term.(const make $ budget_time_arg $ budget_states_arg $ budget_mem_arg)

(* one govern token per run: budgets plus first-^C-cancels (a second ^C
   terminates).  The wall clock starts here, so build the token right
   before the search.  A batch (check, watch, sweep-schemes) makes one
   root and takes a [Mc.Runctl.sibling] of it as each query starts:
   every query gets its whole budget from its own start, and one ^C
   cancels the whole batch, the queries already started and every one
   started after. *)
let make_ctl budget =
  let ctl = Mc.Runctl.create ~budget:(budget ()) () in
  Mc.Runctl.install_sigint ctl;
  ctl

let load_resume path =
  match Mc.Explorer.load_snapshot path with
  | Ok snap -> snap
  | Error msg -> die "cannot resume from %s: %s" path msg

(* --- common arguments -------------------------------------------------- *)

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Spread independent explorations over $(docv) domains \
                 (default 1; 0 means one per available core).  Values \
                 above the host's core count are clamped with a warning \
                 — oversubscribed domains only add contention.  Each \
                 exploration runs on one domain, so outcomes and \
                 statistics are identical for every $(docv).")

(* More worker domains than cores is never faster — OCaml domains are
   not green threads — so a too-large --jobs silently recording
   worse-than-sequential numbers (as single-core hosts used to) is
   treated as a spelling of "all cores", with a warning. *)
let check_jobs n =
  if n < 0 then die "--jobs must be at least 1 (or 0 for one per core)"
  else begin
    let avail = Mc.Park.recommended_jobs () in
    if n = 0 then avail
    else if n > avail then begin
      Fmt.epr
        "psv: --jobs %d exceeds this host's %d available core%s; using %d@."
        n avail
        (if avail = 1 then "" else "s")
        avail;
      avail
    end
    else n
  end

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"DIR"
           ~doc:"Persistent result store: look up each query before \
                 running it and record the result after.  The directory \
                 is created if missing.  Definitive results are reused \
                 under any budget; $(i,unknown) results only when the \
                 stored run's budget covers the requested one.")

let store_retries_arg =
  Arg.(value & opt int 2
       & info [ "store-retries" ] ~docv:"N"
           ~doc:"Retry budget for store reads/writes: each faulting \
                 operation is retried up to $(docv) times with \
                 exponential backoff before counting as a store error \
                 (default 2; 0 disables retries).  Persistent errors \
                 trip the cache into degraded mode — queries compute \
                 from scratch instead of failing.")

let delta_arg =
  Arg.(value & flag
       & info [ "delta" ]
           ~doc:"Incremental re-verification: remember each query's \
                 previous run (network and result) in the \
                 $(b,--cache) store and answer edits through the \
                 cheapest sound rung — store hit, then \
                 cone-of-influence hit — falling back to a full \
                 run.  Verdicts, sups and statistics are identical to a \
                 run without $(b,--delta).  Requires $(b,--cache); \
                 $(b,check) then answers its queries one at a time.")

(* open (creating if needed) the --cache store; corrupt entries warn on
   stderr so --json output on stdout stays byte-stable *)
let open_cache ?(retries = 2) cache =
  match cache with
  | None -> None
  | Some dir -> (
    let retry = Fault.Retry.with_attempts (retries + 1) in
    match Store.Disk.open_ ~retry dir with
    | Ok disk -> Some (Analysis.Qcache.make disk)
    | Error msg -> die "--cache: %s" msg)

(* the hit/miss line format is load-bearing (CI greps it); errors and
   the degraded marker only appear when there is something to say *)
let report_cache = function
  | None -> ()
  | Some cache ->
    let errors = Analysis.Qcache.errors cache in
    if errors = 0 && not (Analysis.Qcache.degraded cache) then
      Fmt.epr "cache: %d hits, %d misses@."
        (Analysis.Qcache.hits cache)
        (Analysis.Qcache.misses cache)
    else
      Fmt.epr "cache: %d hits, %d misses, %d error%s%s@."
        (Analysis.Qcache.hits cache)
        (Analysis.Qcache.misses cache)
        errors
        (if errors = 1 then "" else "s")
        (if Analysis.Qcache.degraded cache then " (degraded)" else "")

(* The one place --cache and --delta become an answer route.  [`Delta]
   (--delta) runs the incremental ladder, whose sessions persist beside
   the store; [`Watch] runs it in memory when there is no store. *)
let answer_route ~cache ~tag mode =
  match mode, cache with
  | `Plain, None -> Incr.Answer.Plain
  | `Plain, Some c -> Incr.Answer.Cached c
  | `Delta, None ->
    die "--delta requires --cache (sessions persist beside the store)"
  | (`Delta | `Watch), _ -> Incr.Answer.Session (Incr.Session.make ?cache ~tag ())

(* one answer along [route]; a ladder answer reports its rung on stderr *)
let answer ?resume ~ctl route net q =
  let t0 = Unix.gettimeofday () in
  let a = Incr.Answer.run ~ctl ?resume route net q in
  Option.iter
    (fun rung ->
      Fmt.epr "incr: %s rung (%d expanded, %.1f ms)@."
        (Incr.Session.rung_name rung) (Incr.Answer.expanded a)
        (1000. *. (Unix.gettimeofday () -. t0)))
    a.Incr.Answer.an_rung;
  a

(* degraded completion: the run finished and every query was answered,
   but the result store was bypassed for part of the batch.  Documented
   exit code 4; only replaces a would-be-0 success. *)
let exit_degraded cache =
  match cache with
  | Some c when Analysis.Qcache.degraded c -> exit 4
  | Some _ | None -> ()

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let scenarios_arg =
  Arg.(value & opt int 60
       & info [ "scenarios" ] ~docv:"N" ~doc:"Number of simulated scenarios.")

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")

(* --- table1 ------------------------------------------------------------ *)

let table1_cmd =
  let run seed scenarios =
    let t = Gpca.Experiment.table1 ~scenarios ~seed Gpca.Params.default in
    Fmt.pr "%a@." Gpca.Experiment.pp_table1 t
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Reproduce Table I: verified PSM bounds vs simulated measurements.")
    Term.(const run $ seed_arg $ scenarios_arg)

(* --- verify ------------------------------------------------------------ *)

let json_sup = function
  | Mc.Explorer.Sup_unreached -> {|{"kind": "unreached"}|}
  | Mc.Explorer.Sup (v, strict) ->
    Printf.sprintf {|{"kind": "value", "value": %d, "strict": %b}|} v strict
  | Mc.Explorer.Sup_exceeds c ->
    Printf.sprintf {|{"kind": "exceeds", "ceiling": %d}|} c

let json_stats (s : Mc.Explorer.stats) =
  Printf.sprintf {|{"visited": %d, "stored": %d, "frontier": %d}|}
    s.Mc.Explorer.visited s.Mc.Explorer.stored s.Mc.Explorer.frontier

let verify_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MODEL.xta" ~doc:"Model to verify.")
  in
  let trigger =
    Arg.(required & opt (some string) None
         & info [ "trigger" ] ~docv:"CHAN" ~doc:"Triggering synchronisation.")
  in
  let response =
    Arg.(required & opt (some string) None
         & info [ "response" ] ~docv:"CHAN" ~doc:"Responding synchronisation.")
  in
  let bound =
    Arg.(value & opt (some int) None
         & info [ "bound" ] ~docv:"N" ~doc:"Check the response bound P($(docv)).")
  in
  let ceiling =
    Arg.(value & opt int 10_000
         & info [ "ceiling" ] ~docv:"N" ~doc:"Sup-query ceiling.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"On interruption (budget or ^C), write the explorer \
                   snapshot to $(docv); resume later with $(b,--resume).")
  in
  let resume =
    Arg.(value & opt (some file) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Continue an interrupted search from a snapshot written \
                   by $(b,--checkpoint).  Model, trigger, response and \
                   ceiling must match the original run.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the verdict and exploration statistics as JSON.")
  in
  let run file trigger response bound ceiling budget checkpoint resume json
      cache delta store_retries =
    if resume <> None && cache <> None then
      die "--resume and --cache are exclusive (a resumed search must \
           explore, not answer from the store)";
    let cache = open_cache ~retries:store_retries cache in
    let net = load_network file in
    let resume_snap = Option.map load_resume resume in
    (* with --bound the sup ceiling is the bound itself: the check is
       exact and a partial sup can already refute it *)
    let ceiling = match bound with Some b -> b | None -> ceiling in
    let ctl = make_ctl budget in
    if delta && (checkpoint <> None || resume <> None) then
      die "--delta is exclusive with --checkpoint/--resume";
    (* one question, whatever answers it: the sup, decided against
       --bound by Mc.Query.bounded_of_sup *)
    let q = Mc.Query.Sup_delay { trigger; response; ceiling } in
    let route = answer_route ~cache ~tag:file (if delta then `Delta else `Plain) in
    let a =
      try answer ~ctl ?resume:resume_snap route net q with
      | Invalid_argument msg -> die "%s" msg
      | Not_found -> die "unknown channel %S or %S" trigger response
    in
    report_cache cache;
    let r = a.Incr.Answer.an_result in
    let written =
      match checkpoint, a.Incr.Answer.an_snapshot with
      | Some path, Some snap ->
        (try Mc.Explorer.save_snapshot path snap; Some path
         with Sys_error msg -> die "cannot write checkpoint: %s" msg)
      | (Some _ | None), _ -> None
    in
    let outcome = r.Mc.Query.res_outcome and st = r.Mc.Query.res_stats in
    let sup =
      match outcome with
      | Mc.Query.Sup s | Mc.Query.Unknown (_, Some s) -> s
      | Mc.Query.Unknown (_, None) | Mc.Query.Holds | Mc.Query.Fails _ ->
        Mc.Explorer.Sup_unreached
    in
    (* a sup query is "proved" when the sup is exact *)
    let verdict =
      match bound with
      | Some b -> Mc.Query.bounded_of_sup outcome ~bound:b
      | None -> outcome
    in
    if json then begin
      let verdict_str, reason =
        match verdict with
        | Mc.Query.Holds | Mc.Query.Sup _ -> ("proved", None)
        | Mc.Query.Fails _ -> ("refuted", None)
        | Mc.Query.Unknown (reason, _) ->
          ("unknown", Some (Mc.Runctl.reason_tag reason))
      in
      let trailer =
        match a.Incr.Answer.an_rung with
        | Some rung ->
          Printf.sprintf {|"rung": "%s"|} (Incr.Session.rung_name rung)
        | None ->
          Printf.sprintf {|"checkpoint": %s|}
            (match written with
             | Some p -> Store.Json.to_string (Store.Json.String p)
             | None -> "null")
      in
      Fmt.pr
        {|{"verdict": "%s", "reason": %s, "bound": %s, "sup": %s, "stats": %s, %s}@.|}
        verdict_str
        (match reason with
         | Some tag -> Printf.sprintf "%S" tag
         | None -> "null")
        (match bound with Some b -> string_of_int b | None -> "null")
        (json_sup sup) (json_stats st) trailer
    end
    else begin
      (match bound with
       | Some b ->
         Fmt.pr "P(%d) %s -> %s: %s@." b trigger response
           (match verdict with
            | Mc.Query.Holds | Mc.Query.Sup _ -> "SATISFIED"
            | Mc.Query.Fails _ -> "VIOLATED"
            | Mc.Query.Unknown (reason, _) ->
              Fmt.str "UNKNOWN (%a)" Mc.Runctl.pp_reason reason)
       | None ->
         Fmt.pr "max delay %s -> %s: %a (%d states)%s@." trigger response
           Mc.Explorer.pp_sup_result sup st.Mc.Explorer.visited
           (match verdict with
            | Mc.Query.Unknown (reason, _) ->
              Fmt.str " [interrupted: %a]" Mc.Runctl.pp_reason reason
            | Mc.Query.Holds | Mc.Query.Fails _ | Mc.Query.Sup _ -> ""));
      Fmt.pr "states: %d visited, %d stored, %d frontier@."
        st.Mc.Explorer.visited st.Mc.Explorer.stored st.Mc.Explorer.frontier;
      match written with
      | Some p -> Fmt.pr "checkpoint written to %s@." p
      | None -> ()
    end;
    match verdict with
    | Mc.Query.Holds | Mc.Query.Sup _ -> exit_degraded cache
    | Mc.Query.Fails _ -> exit 1
    | Mc.Query.Unknown _ -> exit 2
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify a bounded-response requirement, or compute the maximum \
             delay.  Exit codes: 0 proved, 1 refuted, 2 unknown \
             (interrupted by a budget or ^C), 3 usage or parse error, \
             4 proved but the $(b,--cache) store was degraded.")
    Term.(const run $ file $ trigger $ response $ bound $ ceiling
          $ budget_term $ checkpoint $ resume $ json $ cache_arg $ delta_arg
          $ store_retries_arg)

(* --- query ---------------------------------------------------------------- *)

let query_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MODEL.xta" ~doc:"Model to query.")
  in
  let query =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY"
             ~doc:"E<> PRED | A[] PRED | sup: CHAN -> CHAN [ceiling N] | \
                   bounded: CHAN -> CHAN within N")
  in
  let run file query budget cache delta store_retries =
    let cache = open_cache ~retries:store_retries cache in
    let net = load_network file in
    match Mc.Query.parse query with
    | Error msg -> die "query: %s" msg
    | Ok q ->
      let ctl = make_ctl budget in
      let route =
        answer_route ~cache ~tag:file (if delta then `Delta else `Plain)
      in
      let a =
        try answer ~ctl route net q
        with Not_found ->
          die "query names an unknown process, location or variable"
      in
      report_cache cache;
      let outcome = a.Incr.Answer.an_result.Mc.Query.res_outcome in
      Fmt.pr "%a@." Mc.Query.pp_outcome outcome;
      (match outcome with
       | Mc.Query.Fails (Some trace) ->
         Fmt.pr "@[<v 2>counterexample:@,%a@]@."
           Fmt.(list ~sep:cut string)
           trace
       | Mc.Query.Fails None | Mc.Query.Holds | Mc.Query.Sup _
       | Mc.Query.Unknown _ -> ());
      (match outcome with
       | Mc.Query.Fails _ -> exit 1
       | Mc.Query.Unknown _ -> exit 2
       | Mc.Query.Holds | Mc.Query.Sup _ -> ())
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate an UPPAAL-style query on a .xta model.  Exit codes: \
             0 holds, 1 fails, 2 unknown, 3 usage or parse error.")
    Term.(const run $ file $ query $ budget_term $ cache_arg $ delta_arg
          $ store_retries_arg)

(* --- check (batch queries) -------------------------------------------------- *)

let check_cmd =
  let model =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MODEL.xta" ~doc:"Model to check.")
  in
  let queries =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"QUERIES.q"
             ~doc:"Query file: one query per line; blank lines and lines \
                   starting with # are skipped.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON document with every outcome instead of \
                   the table.  The output depends only on the outcomes \
                   (no wall times), so a warm $(b,--cache) run reproduces \
                   a cold run byte for byte.")
  in
  let run model queries jobs budget cache json delta store_retries =
    let jobs = check_jobs jobs in
    if delta && jobs > 1 then
      die "--delta answers one query at a time; drop --jobs";
    let cache = open_cache ~retries:store_retries cache in
    let route =
      answer_route ~cache ~tag:model (if delta then `Delta else `Plain)
    in
    let net = load_network model in
    let lines = String.split_on_char '\n' (read_file queries) in
    let numbered =
      List.filteri (fun _ (_, line) -> line <> "" && line.[0] <> '#')
        (List.mapi (fun lineno line -> (lineno + 1, String.trim line)) lines)
    in
    (* a row's status: the table's word and the JSON's *)
    let status = function
      | Error _ -> ("ERROR", "error")
      | Ok (a : Incr.Answer.t) -> (
        match a.Incr.Answer.an_result.Mc.Query.res_outcome with
        | Mc.Query.Fails _ -> ("FAIL", "fail")
        | Mc.Query.Unknown _ -> ("?", "unknown")
        | Mc.Query.Holds | Mc.Query.Sup _ -> ("pass", "pass"))
    in
    let report (lineno, line, res) =
      match res with
      | Error msg -> Fmt.pr "%3d  ERROR  %s@.     %s@." lineno line msg
      | Ok (a : Incr.Answer.t) ->
        Fmt.pr "%3d  %-5s  %s  [%a]@." lineno (fst (status res)) line
          Mc.Query.pp_outcome a.Incr.Answer.an_result.Mc.Query.res_outcome
    in
    let root = make_ctl budget in
    let eval_line (lineno, line) =
      let res =
        match Mc.Query.parse line with
        | Error msg -> Error msg
        | Ok q -> (
          (* catch everything on the worker: one poisoned query reports
             an error row instead of killing the batch *)
          match Incr.Answer.run ~ctl:(Mc.Runctl.sibling root) route net q with
          | a -> Ok a
          | exception Not_found -> Error "unknown process, location or variable"
          | exception exn ->
            Error ("evaluation crashed: " ^ Printexc.to_string exn))
      in
      (* at --jobs 1 the pool is an in-order map, so rows stream *)
      if jobs <= 1 && not json then report (lineno, line, res);
      (lineno, line, res)
    in
    let results = Analysis.Pool.map ~jobs eval_line numbered in
    if jobs > 1 && not json then List.iter report results;
    let count p = List.length (List.filter (fun (_, _, res) -> p res) results) in
    let count_status word = count (fun res -> snd (status res) = word) in
    let failures = count_status "fail" + count_status "error"
    and unknowns = count_status "unknown" in
    (* the rungs that answered, counted from the answers themselves *)
    let count_rung rung =
      count (function
        | Ok (a : Incr.Answer.t) -> a.Incr.Answer.an_rung = Some rung
        | Error _ -> false)
    in
    let total = List.length numbered in
    if json then begin
      let open Store.Json in
      let query_row (lineno, line, res) =
        let common = [ ("line", Int lineno); ("query", String line) ] in
        match res with
        | Error msg ->
          Obj (common @ [ ("status", String "error"); ("error", String msg) ])
        | Ok (a : Incr.Answer.t) ->
          let r = a.Incr.Answer.an_result in
          Obj
            (common
            @ [ ("status", String (snd (status res)));
                ("outcome", Store.Entry.outcome_to_json r.Mc.Query.res_outcome);
                ("stats", Store.Entry.stats_to_json r.Mc.Query.res_stats) ])
      in
      print_endline
        (to_string
           (Obj
              [ ("model", String model);
                ("queries", List (List.map query_row results));
                ( "summary",
                  Obj
                    [ ("total", Int total);
                      ("failures", Int failures);
                      ("unknowns", Int unknowns) ] ) ]))
    end
    else
      Fmt.pr "@.%d quer%s, %d failure%s, %d unknown@." total
        (if total = 1 then "y" else "ies")
        failures
        (if failures = 1 then "" else "s")
        unknowns;
    report_cache cache;
    if delta then
      Fmt.epr "incr: %d cone, %d full@." (count_rung Incr.Session.Cone_hit)
        (count_rung Incr.Session.Full);
    if failures > 0 then exit 1
    else if unknowns > 0 then exit 2
    else exit_degraded cache
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run a file of queries against a model (verifyta-style), \
             optionally $(b,--jobs) queries at a time on separate domains \
             and $(b,--cache) answering repeats from the persistent store.  \
             Exit codes: 0 all pass, 1 any failure, 2 no failures but some \
             unknown, 3 usage or parse error, 4 all pass but the store was \
             degraded (circuit breaker tripped; some answers computed \
             without the cache).")
    Term.(const run $ model $ queries $ jobs_arg $ budget_term $ cache_arg
          $ json_arg $ delta_arg $ store_retries_arg)

(* --- watch (poll the model file, re-verify incrementally) ---------------- *)

let watch_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MODEL.xta" ~doc:"Model file to watch.")
  in
  let queries =
    Arg.(non_empty & opt_all string []
         & info [ "q"; "query" ] ~docv:"QUERY"
             ~doc:"Query to re-verify after each edit (repeatable).")
  in
  let poll_ms =
    Arg.(value & opt int 200
         & info [ "poll-ms" ] ~docv:"MS"
             ~doc:"Polling interval — the watcher compares mtimes, no \
                   inotify dependency (default 200).")
  in
  let max_edits =
    Arg.(value & opt (some int) None
         & info [ "max-edits" ] ~docv:"N"
             ~doc:"Exit 0 after re-verifying $(docv) edits (the initial \
                   run not counted) — for scripts and CI smoke tests.  \
                   Default: watch until interrupted.")
  in
  let run file qtexts poll_ms max_edits budget cache store_retries =
    if poll_ms <= 0 then die "--poll-ms must be positive";
    let cache = open_cache ~retries:store_retries cache in
    let queries =
      List.map
        (fun text ->
          match Mc.Query.parse text with
          | Ok q -> q
          | Error msg -> die "query %S: %s" text msg)
        qtexts
    in
    let route = answer_route ~cache ~tag:file `Watch in
    let root = make_ctl budget in
    let mtime () =
      match Unix.stat file with
      | st -> Some st.Unix.st_mtime
      | exception Unix.Unix_error _ -> None
    in
    (* tolerant reads: an editor's rename-into-place can race the poll,
       so a transient failure just waits for the next tick *)
    let read () =
      try Some (In_channel.with_open_bin file In_channel.input_all)
      with Sys_error _ -> None
    in
    let verify_all ~label =
      match read () with
      | None -> Fmt.pr "[%s] cannot read %s@." label file
      | Some text -> (
        match Xta.Parse.network text with
        | Error msg -> Fmt.pr "[%s] parse error: %s@." label msg
        | Ok net ->
          List.iter
            (fun q ->
              let t0 = Unix.gettimeofday () in
              let ctl = Mc.Runctl.sibling root in
              match Incr.Answer.run ~ctl route net q with
              | a ->
                Fmt.pr
                  "[%s] %s: %a  (%s rung, %.1f ms, %d expanded)@."
                  label (Mc.Query.to_string q) Mc.Query.pp_outcome
                  a.Incr.Answer.an_result.Mc.Query.res_outcome
                  (Option.fold ~none:"-" ~some:Incr.Session.rung_name
                     a.Incr.Answer.an_rung)
                  (1000. *. (Unix.gettimeofday () -. t0))
                  (Incr.Answer.expanded a)
              | exception Not_found ->
                Fmt.pr "[%s] %s: ERROR unknown process, location or variable@."
                  label (Mc.Query.to_string q))
            queries)
    in
    let last = ref (mtime ()) in
    verify_all ~label:"initial";
    let edits = ref 0 in
    (* a ^C cancels the root: the query running, if any, answers unknown
       and the loop ends at its next tick *)
    let keep_going () =
      (not (Mc.Runctl.cancelled root))
      && match max_edits with Some m -> !edits < m | None -> true
    in
    while keep_going () do
      Unix.sleepf (float_of_int poll_ms /. 1000.);
      match mtime () with
      | Some t when !last <> Some t && not (Mc.Runctl.cancelled root) ->
        last := Some t;
        incr edits;
        verify_all ~label:(Printf.sprintf "edit %d" !edits)
      | Some _ | None -> ()
    done;
    report_cache cache;
    if Mc.Runctl.cancelled root then exit 2
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Watch a model file and re-verify the given queries after \
             every edit, answering through the incremental ladder — \
             store hit, cone-of-influence hit, full sequential run — \
             and printing the rung and wall time per edit.  \
             With $(b,--cache) the session persists across restarts.  \
             Exit codes: 0 after $(b,--max-edits) edits, 2 interrupted \
             by ^C, 3 usage or parse error.")
    Term.(const run $ file $ queries $ poll_ms $ max_edits $ budget_term
          $ cache_arg $ store_retries_arg)

(* --- sweep-schemes (grid sweep with analytic prefilter) ----------------- *)

let json_cost cost =
  "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int cost)) ^ "]"

let json_point (pr : Analysis.Sweep.point_result) =
  Printf.sprintf
    {|{"point": %d, "verdict": "%s", "decision": "%s", "ub": %d, "lb": %d%s, "cost": %s}|}
    pr.Analysis.Sweep.pr_index
    (Analysis.Sweep.verdict_name pr.Analysis.Sweep.pr_verdict)
    (Analysis.Sweep.decision_name pr.Analysis.Sweep.pr_decision)
    pr.Analysis.Sweep.pr_ub pr.Analysis.Sweep.pr_lb
    (match pr.Analysis.Sweep.pr_sup with
     | None -> ""
     | Some s -> Printf.sprintf {|, "sup": %s|} (json_sup s))
    (json_cost pr.Analysis.Sweep.pr_cost)

let json_sweep_outcome ~extra (o : Analysis.Sweep.outcome) =
  Printf.sprintf
    {|{"points": %d, "pass": %d, "fail": %d, "unknown": %d, "invalid": %d, "analytic_pass": %d, "analytic_fail": %d, "explored": %d, "memo_hits": %d, "mc_runs": %d, "skip_rate": %.4f, "audited": %d, "audit_mismatches": %d, "interrupted": %d, "wall_ms": %.1f, "pareto": [%s]%s}|}
    o.Analysis.Sweep.o_points o.Analysis.Sweep.o_pass o.Analysis.Sweep.o_fail
    o.Analysis.Sweep.o_unknown o.Analysis.Sweep.o_invalid
    o.Analysis.Sweep.o_analytic_pass o.Analysis.Sweep.o_analytic_fail
    o.Analysis.Sweep.o_explored o.Analysis.Sweep.o_memo_hits
    o.Analysis.Sweep.o_mc_runs o.Analysis.Sweep.o_skip_rate
    o.Analysis.Sweep.o_audited
    (List.length o.Analysis.Sweep.o_audit_mismatches)
    o.Analysis.Sweep.o_interrupted o.Analysis.Sweep.o_wall_ms
    (String.concat ", "
       (List.map
          (fun (i, cost) ->
            Printf.sprintf {|{"point": %d, "cost": %s}|} i (json_cost cost))
          o.Analysis.Sweep.o_pareto))
    extra

let pp_sweep_summary (o : Analysis.Sweep.outcome) =
  Fmt.pr "%16s | %8s@." "----------------" "--------";
  Fmt.pr "%16s | %8d@." "points" o.Analysis.Sweep.o_points;
  Fmt.pr "%16s | %8d@." "pass" o.Analysis.Sweep.o_pass;
  Fmt.pr "%16s | %8d@." "fail" o.Analysis.Sweep.o_fail;
  Fmt.pr "%16s | %8d@." "unknown" o.Analysis.Sweep.o_unknown;
  Fmt.pr "%16s | %8d@." "invalid" o.Analysis.Sweep.o_invalid;
  Fmt.pr "%16s | %8d@." "analytic pass" o.Analysis.Sweep.o_analytic_pass;
  Fmt.pr "%16s | %8d@." "analytic fail" o.Analysis.Sweep.o_analytic_fail;
  Fmt.pr "%16s | %8d@." "explored" o.Analysis.Sweep.o_explored;
  Fmt.pr "%16s | %8d@." "memo hits" o.Analysis.Sweep.o_memo_hits;
  Fmt.pr "%16s | %8d@." "mc runs" o.Analysis.Sweep.o_mc_runs;
  Fmt.pr "%16s | %7.1f%%@." "skip rate"
    (100. *. o.Analysis.Sweep.o_skip_rate);
  Fmt.pr "%16s | %8d@." "audited" o.Analysis.Sweep.o_audited;
  Fmt.pr "%16s | %8d@." "audit mismatches"
    (List.length o.Analysis.Sweep.o_audit_mismatches);
  Fmt.pr "%16s | %8d@." "pareto points"
    (List.length o.Analysis.Sweep.o_pareto);
  Fmt.pr "%16s | %8.0f@." "wall ms" o.Analysis.Sweep.o_wall_ms

(* run the sweep engine with a streaming sink, report, and fold the
   outcome into the exit-code contract (1 audit mismatch, 2 interrupted,
   4 degraded) *)
let run_sweep_engine ~cfg ~points ~build ~cache ~json ~points_out ~extra =
  let sink, close_sink =
    match points_out with
    | None -> (None, fun () -> ())
    | Some path -> (
      try
        let oc = open_out path in
        ( Some
            (fun pr ->
              output_string oc (json_point pr);
              output_char oc '\n'),
          fun () -> close_out_noerr oc )
      with Sys_error msg -> die "--points-out: %s" msg)
  in
  let cfg = { cfg with Analysis.Sweep.sw_emit = sink } in
  let outcome = Analysis.Sweep.run cfg ~points ~build in
  close_sink ();
  report_cache cache;
  if json then print_endline (json_sweep_outcome ~extra outcome)
  else pp_sweep_summary outcome;
  List.iter
    (fun (i, diag) -> Fmt.epr "sweep: audit mismatch at point %d: %s@." i diag)
    outcome.Analysis.Sweep.o_audit_mismatches;
  if outcome.Analysis.Sweep.o_audit_mismatches <> [] then exit 1
  else if outcome.Analysis.Sweep.o_interrupted > 0 then begin
    Fmt.epr "sweep: %d point%s interrupted@."
      outcome.Analysis.Sweep.o_interrupted
      (if outcome.Analysis.Sweep.o_interrupted = 1 then "" else "s");
    exit 2
  end
  else exit_degraded cache

let sweep_schemes_cmd =
  let axis_arg =
    Arg.(value & opt_all string []
         & info [ "axis"; "a" ] ~docv:"NAME=SPEC"
             ~doc:"Add a grid axis (repeatable): $(i,NAME=LO..HI) or \
                   $(i,NAME=LO..HI/STEP) for a range, $(i,NAME=V1,V2,...) \
                   for an explicit list.  Axis names: period, poll, \
                   buffer, policy, comm, mech, signal, in_dmin, in_dmax, \
                   out_dmin, out_dmax, wcet.  The grid is the cartesian \
                   product; unnamed axes stay at the base preset's value.")
  in
  let space_arg =
    Arg.(value & opt string "small"
         & info [ "space" ] ~docv:"BASE"
             ~doc:"Base parameter set the axes perturb: $(i,small) \
                   (~10x-scaled-down constants, the grid preset) or \
                   $(i,table1) (the paper's calibrated constants).")
  in
  let req_arg =
    Arg.(value & opt (some int) None
         & info [ "req" ] ~docv:"BOUND"
             ~doc:"Requirement on the mc-boundary response delay \
                   (default: the base's REQ1).")
  in
  let limit_arg =
    Arg.(value & opt int 500_000
         & info [ "limit" ] ~docv:"N" ~doc:"Per-query state limit.")
  in
  let no_prefilter_arg =
    Arg.(value & flag
         & info [ "no-prefilter" ]
             ~doc:"Disable the analytic prefilter: model check every \
                   valid point (the baseline the prefilter races; dedup \
                   still applies).")
  in
  let audit_arg =
    Arg.(value & opt int 0
         & info [ "audit" ] ~docv:"N"
             ~doc:"Also model check every $(docv)-th analytically decided \
                   point and compare verdicts; any disagreement is \
                   reported and exits 1.  0 disables auditing.")
  in
  let batch_arg =
    Arg.(value & opt int 4096
         & info [ "batch" ] ~docv:"N"
             ~doc:"Points decoded and classified per batch (bounds \
                   memory; the grid itself is never materialised).")
  in
  let points_out_arg =
    Arg.(value & opt (some string) None
         & info [ "points-out" ] ~docv:"FILE"
             ~doc:"Stream one JSON line per point to $(docv) (index \
                   order): verdict, decision, bounds, verified sup, cost.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the summary as one JSON object on stdout instead \
                   of the table.")
  in
  let run axes space req limit no_prefilter audit batch points_out json jobs
      budget cache store_retries =
    if axes = [] then
      die "no --axis given (e.g. --axis period=10..80/10 --axis mech=0,1)";
    let base =
      match Gpca.Sweep_space.base_of_string space with
      | Ok b -> b
      | Error msg -> die "--space: %s" msg
    in
    let parsed =
      List.map
        (fun spec ->
          match Scheme.Grid.parse_axis spec with
          | Ok ax -> ax
          | Error msg -> die "bad --axis %S: %s" spec msg)
        axes
    in
    (match Gpca.Sweep_space.validate_axes (List.map fst parsed) with
     | Ok () -> ()
     | Error msg -> die "--axis: %s" msg);
    let grid =
      match Scheme.Grid.make parsed with
      | Ok g -> g
      | Error msg -> die "--axis: %s" msg
    in
    let req =
      match req with
      | Some r -> if r <= 0 then die "--req must be positive" else r
      | None -> Gpca.Sweep_space.default_req base
    in
    if audit < 0 then die "--audit must be non-negative";
    if batch < 1 then die "--batch must be at least 1";
    let jobs = check_jobs jobs in
    let cache = open_cache ~retries:store_retries cache in
    let ctl = make_ctl budget in
    let points = Scheme.Grid.cardinality grid in
    Fmt.epr "sweep: %d points (%s), req %d, prefilter %s@." points
      (String.concat " x "
         (List.map
            (fun (name, vs) -> Printf.sprintf "%s:%d" name (List.length vs))
            (Scheme.Grid.axes grid)))
      req
      (if no_prefilter then "off" else "on");
    let cfg =
      { Analysis.Sweep.default_config with
        Analysis.Sweep.sw_prefilter = not no_prefilter;
        sw_jobs = jobs;
        sw_limit = Some limit;
        sw_ctl = Some ctl;
        sw_cache = cache;
        sw_batch = batch;
        sw_audit = audit }
    in
    run_sweep_engine ~cfg ~points
      ~build:(Gpca.Sweep_space.build ~base ~req grid)
      ~cache ~json ~points_out
      ~extra:
        (Printf.sprintf {|, "req": %d, "base": "%s"|} req
           (Gpca.Sweep_space.base_name base))
  in
  Cmd.v
    (Cmd.info "sweep-schemes"
       ~doc:"Sweep a grid of GPCA implementation schemes — buffer sizes, \
             periods, polling intervals, device delays, signal and \
             read-policy choices — racing the Lemma-1/2 analytic bounds \
             against the zone explorer on every point: an analytic upper \
             bound under the requirement passes with zero model checking, \
             an analytic lower bound above it fails likewise, and only \
             the undecided band is explored ($(b,--jobs) at a time, \
             deduplicated on the point's requirement cone so collapsed \
             axes share one exploration).  Streams per-point JSON with \
             $(b,--points-out), prints a summary table (or $(b,--json)) \
             with the Pareto frontier of passing platform costs.  Exit \
             codes: 0 complete, 1 an $(b,--audit) probe contradicted an \
             analytic verdict, 2 some points interrupted, 3 usage error, \
             4 complete but the store was degraded.")
    Term.(const run $ axis_arg $ space_arg $ req_arg $ limit_arg
          $ no_prefilter_arg $ audit_arg $ batch_arg $ points_out_arg
          $ json_arg $ jobs_arg $ budget_term $ cache_arg $ store_retries_arg)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MODEL.xta" ~doc:"Model to search.")
  in
  let target =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PRED"
             ~doc:"Target predicate, e.g. 'Pump.Infusing' or 'iovf_BolusReq == 1'.")
  in
  let run file target =
    let net = load_network file in
    match Mc.Query.parse ("E<> " ^ target) with
    | Error msg -> die "predicate: %s" msg
    | Ok (Mc.Query.Exists_eventually p) ->
      let t = Mc.Explorer.make net in
      let pred =
        try Mc.Query.compile_pred t p
        with Not_found ->
          die "predicate names an unknown process, location or variable"
      in
      (match Mc.Explorer.timed_trace t pred with
       | Some steps ->
         List.iter (Fmt.pr "%a@." Mc.Explorer.pp_timed_step) steps
       | None ->
         Fmt.pr "unreachable@.";
         exit 1)
    | Ok _ -> assert false
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print a timed witness trace reaching a state predicate.")
    Term.(const run $ file $ target)

(* --- transform ---------------------------------------------------------- *)

let transform_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"PIM.xta" ~doc:"Platform-independent model.")
  in
  let software =
    Arg.(required & opt (some string) None
         & info [ "software" ] ~docv:"NAME" ~doc:"The software automaton (M).")
  in
  let environment =
    Arg.(required & opt (some string) None
         & info [ "environment" ] ~docv:"NAME" ~doc:"The environment automaton (ENV).")
  in
  let inputs =
    Arg.(value & opt_all string []
         & info [ "input" ] ~docv:"SPEC"
             ~doc:"Input device spec: CHAN:interrupt:DMIN:DMAX or \
                   CHAN:polling:INTERVAL:DMIN:DMAX.  Repeatable.")
  in
  let outputs =
    Arg.(value & opt_all string []
         & info [ "output-dev" ] ~docv:"SPEC"
             ~doc:"Output device spec: CHAN:DMIN:DMAX.  Repeatable.")
  in
  let period =
    Arg.(value & opt (some int) None
         & info [ "period" ] ~docv:"N" ~doc:"Periodic invocation period.")
  in
  let aperiodic =
    Arg.(value & opt (some int) None
         & info [ "aperiodic" ] ~docv:"GAP" ~doc:"Aperiodic invocation with minimum gap.")
  in
  let buffer =
    Arg.(value & opt int 5 & info [ "buffer" ] ~docv:"N" ~doc:"Buffer capacity.")
  in
  let shared =
    Arg.(value & flag & info [ "shared" ] ~doc:"Shared-variable communication.")
  in
  let read_one =
    Arg.(value & flag & info [ "read-one" ] ~doc:"Read-one policy (default read-all).")
  in
  let wcet =
    Arg.(value & opt string "1:10" & info [ "wcet" ] ~docv:"MIN:MAX" ~doc:"Execution window.")
  in
  let run file software environment inputs outputs period aperiodic buffer
      shared read_one wcet out =
    let net = load_network file in
    let psm =
      try
        let pim = Transform.Pim.make net ~software ~environment in
        let scheme =
          scheme_of_options ~inputs ~outputs ~period ~aperiodic_gap:aperiodic
            ~buffer ~shared ~read_one ~wcet:(parse_wcet wcet)
        in
        Transform.psm_of_pim pim scheme
      with Transform.Pim.Ill_formed msg | Transform.Transform_error msg ->
        die "%s" msg
    in
    write_out out (Xta.Print.to_string psm.Transform.psm_net)
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Transform a PIM into the PSM of an implementation scheme.")
    Term.(const run $ file $ software $ environment $ inputs $ outputs
          $ period $ aperiodic $ buffer $ shared $ read_one $ wcet
          $ output_arg)

(* --- bounds ------------------------------------------------------------- *)

let bounds_cmd =
  let run () =
    let p = Gpca.Params.default in
    let a = Gpca.Experiment.analytic_bounds p in
    Fmt.pr
      "@[<v>Analytic bounds of the GPCA case study (Lemmas 1 and 2):@,\
       Input-Delay  (bolus request -> code read):        %d ms@,\
       Output-Delay (code output -> infusion visible):   %d ms@,\
       Internal     (PIM bound on request -> start):     %d ms@,\
       Relaxed M-C bound Delta'mc:                       %d ms@]@."
      a.Gpca.Experiment.a_input a.Gpca.Experiment.a_output
      a.Gpca.Experiment.a_internal a.Gpca.Experiment.a_mc
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the analytic Lemma-1/2 bounds (GPCA parameters).")
    Term.(const run $ const ())

(* --- simulate ------------------------------------------------------------ *)

(* fault spec syntax: JITTER:DROP:DUP (floats; see Sim.Engine.faults) *)
let parse_faults_spec ~seed spec =
  let float_field ~field s =
    match float_of_string_opt (String.trim s) with
    | Some v -> v
    | None ->
      die "bad --faults %S: field %s is %S, expected a number" spec field s
  in
  match String.split_on_char ':' spec with
  | [ j; dr; du ] -> (
    try
      Sim.Engine.faults ~seed ~jitter:(float_field ~field:"JITTER" j)
        ~drop:(float_field ~field:"DROP" dr)
        ~dup:(float_field ~field:"DUP" du) ()
    with Invalid_argument msg -> die "%s" msg)
  | _ -> die "bad --faults %S (want JITTER:DROP:DUP)" spec

let simulate_cmd =
  let faults_arg =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"JITTER:DROP:DUP"
             ~doc:"Inject platform faults: device delays stretched by up \
                   to JITTER (fraction), each mc-boundary sample dropped \
                   with probability DROP or duplicated with probability \
                   DUP.  Example: 0.5:0.1:0.1.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 7
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Seed of the fault stream (independent of --seed).")
  in
  let run seed scenarios faults_spec fault_seed =
    match faults_spec with
    | None ->
      let m = Gpca.Experiment.measure ~scenarios ~seed Gpca.Params.default in
      Fmt.pr
        "@[<v>Simulated implementation, %d bolus scenarios (seed %d):@,\
         M-C delay:    %a@,Input delay:  %a@,Output delay: %a@,\
         losses: %d, REQ1 violations: %d@]@."
        m.Gpca.Experiment.m_scenarios seed Sim.Measure.pp_stats
        m.Gpca.Experiment.m_mc Sim.Measure.pp_stats m.Gpca.Experiment.m_input
        Sim.Measure.pp_stats m.Gpca.Experiment.m_output
        m.Gpca.Experiment.m_losses m.Gpca.Experiment.m_req1_violations
    | Some spec ->
      (* degraded platform: samples may be lost, so aggregate whatever
         completes instead of demanding one full observation per run *)
      let faults = parse_faults_spec ~seed:fault_seed spec in
      let p = Gpca.Params.default in
      let rng = Sim.Rng.create seed in
      let mc = ref [] and inp = ref [] and outp = ref [] in
      let losses = ref 0 and violations = ref 0 in
      for index = 0 to scenarios - 1 do
        let request_time =
          Sim.Rng.float_range rng 0.0 (float_of_int (10 * p.Gpca.Params.period))
        in
        let config = Gpca.Experiment.scenario_config p ~request_time in
        let log =
          Sim.Engine.run ~seed:(seed + (1000 * (index + 1))) ~faults config
        in
        losses :=
          !losses
          + Sim.Measure.count log (function
              | Sim.Engine.Input_lost _ | Sim.Engine.Output_lost _ -> true
              | _ -> false);
        List.iter
          (fun s ->
            (match Sim.Measure.mc_delay s with
             | Some d ->
               mc := d :: !mc;
               if d > float_of_int Gpca.Params.req1_bound then incr violations
             | None -> ());
            (match Sim.Measure.input_delay s with
             | Some d -> inp := d :: !inp
             | None -> ());
            match Sim.Measure.output_delay s with
            | Some d -> outp := d :: !outp
            | None -> ())
          (Sim.Measure.samples log ~trigger:Gpca.Model.bolus_req
             ~response:Gpca.Model.start_infusion)
      done;
      let line name l =
        match Sim.Measure.stats_of l with
        | Some st -> Fmt.pr "%s%a@." name Sim.Measure.pp_stats st
        | None -> Fmt.pr "%s(no complete samples)@." name
      in
      Fmt.pr
        "Fault-injected implementation (%s), %d bolus scenarios (seed %d):@."
        spec scenarios seed;
      line "M-C delay:    " !mc;
      line "Input delay:  " !inp;
      line "Output delay: " !outp;
      Fmt.pr "losses: %d, REQ1 violations: %d@." !losses !violations
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the simulated GPCA implementation and measure delays, \
             optionally under an injected fault profile.")
    Term.(const run $ seed_arg $ scenarios_arg $ faults_arg $ fault_seed_arg)

(* --- fuzz ---------------------------------------------------------------- *)

let fuzz_cmd =
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count"; "n" ] ~docv:"N"
             ~doc:"Number of instances to generate and cross-check \
                   (default 100).")
  in
  (* the oracle clamps the batch width to the host's cores itself *)
  let fuzz_jobs_arg =
    Arg.(value & opt int 2
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Domains an instance's independent checks share \
                   (default 2; at most the host's cores).  Records are \
                   identical for every $(docv).")
  in
  let shapes_arg =
    Arg.(value & opt string "all"
         & info [ "shapes" ] ~docv:"LIST"
             ~doc:"Comma-separated generator shapes: chain, fan-in, \
                   pipeline, psm-scheme (default all four, round-robin).")
  in
  let fuzz_scenarios_arg =
    Arg.(value & opt int 3
         & info [ "scenarios" ] ~docv:"N"
             ~doc:"Simulated measurement scenarios per psm-scheme \
                   instance (default 3; 0 disables the sim answerer).")
  in
  let sim_faults_arg =
    Arg.(value & opt (some string) None
         & info [ "sim-faults" ] ~docv:"JITTER:DROP:DUP"
             ~doc:"Measure under an injected platform fault profile \
                   (syntax as $(b,psv simulate --faults)).  Faults only \
                   ever stretch delays, so the analytic floor must still \
                   hold; the sup-side comparison is skipped.")
  in
  let sim_fault_seed_arg =
    Arg.(value & opt int 7
         & info [ "sim-fault-seed" ] ~docv:"N"
             ~doc:"Seed of the fault stream (independent of --seed).")
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"On a discrepancy, greedily minimise the instance \
                   (re-running the oracle after each candidate \
                   reduction) and write the reproducer into \
                   $(b,--corpus).  Construction-bound discrepancies \
                   (truth, analytic, bounded, sim) are persisted \
                   unshrunk — the generator's answer key does not \
                   survive surgery on the network.")
  in
  let corpus_arg =
    Arg.(value & opt string "fuzz-corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Corpus directory for reproducers (default \
                   fuzz-corpus): one subdirectory per discrepant \
                   instance holding model.xta, query.q and meta.json.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Stream one JSON line per instance to stdout and a \
                   final summary object instead of the human table.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the per-instance JSON lines to $(docv).")
  in
  let skew_arg =
    Arg.(value & opt int 0
         & info [ "inject-sup-skew" ] ~docv:"K"
             ~doc:"Test-only fault injection: report every primary sup \
                   as its true value plus $(docv), so the harness's own \
                   detection and shrinking paths can be demonstrated \
                   end to end.  The injected bug is caught as an xta \
                   discrepancy.")
  in
  let run seed count jobs shapes scenarios faults_spec fault_seed shrink
      corpus cache json out skew store_retries =
    if count <= 0 then die "--count must be positive";
    if jobs <= 0 then die "--jobs must be at least 1";
    if scenarios < 0 then die "--scenarios must be at least 0";
    let shapes =
      if String.trim shapes = "all" then Diff.Gen.all_shapes
      else
        List.map
          (fun s ->
            match Diff.Gen.shape_of_name (String.trim s) with
            | Some shape -> shape
            | None ->
              die "unknown shape %S (want chain, fan-in, pipeline or \
                   psm-scheme)" s)
          (String.split_on_char ',' shapes)
    in
    if shapes = [] then die "--shapes must name at least one shape";
    let cache = open_cache ~retries:store_retries cache in
    let sim_faults =
      Option.map (parse_faults_spec ~seed:fault_seed) faults_spec
    in
    let cfg =
      { Diff.Oracle.jobs;
        scenarios;
        sim_faults;
        cache;
        mutation =
          (if skew = 0 then None else Some (Diff.Oracle.Sup_skew skew)) }
    in
    (* both outputs fail here, before the first instance runs, rather
       than as an uncaught exception halfway through the corpus *)
    let out_chan =
      Option.map
        (fun path ->
          try open_out path with Sys_error msg -> die "--out: %s" msg)
        out
    in
    if shrink then begin
      let rec mkdirs dir =
        if not (Sys.file_exists dir) then begin
          mkdirs (Filename.dirname dir);
          Sys.mkdir dir 0o755
        end
      in
      (try mkdirs corpus with Sys_error msg -> die "--corpus: %s" msg);
      if not (Sys.is_directory corpus) then
        die "--corpus: %s: not a directory" corpus
    end;
    let emit doc =
      let line = Store.Json.to_string doc in
      if json then print_endline line;
      Option.iter
        (fun oc ->
          output_string oc line;
          output_string oc "\n")
        out_chan
    in
    let n_shapes = List.length shapes in
    let per_shape = Hashtbl.create 4 in
    let bump shape discs ms =
      let c, d, t =
        Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt per_shape shape)
      in
      Hashtbl.replace per_shape shape (c + 1, d + discs, t +. ms)
    in
    let discrepant = ref 0 and shrunk = ref 0 in
    let t0 = Unix.gettimeofday () in
    for index = 0 to count - 1 do
      let shape = List.nth shapes (index mod n_shapes) in
      let inst = Diff.Gen.instance ~seed ~index shape in
      let v = Diff.Oracle.run cfg inst in
      let discs = v.Diff.Oracle.v_discrepancies in
      bump shape (List.length discs) v.Diff.Oracle.v_wall_ms;
      if discs <> [] then incr discrepant;
      if not json then
        List.iter
          (fun (d : Diff.Oracle.discrepancy) ->
            Fmt.pr "%s  DISCREPANCY [%s]  %s@." inst.Diff.Gen.id
              (Diff.Oracle.check_name d.Diff.Oracle.d_check)
              d.Diff.Oracle.d_detail)
          discs;
      let entry_dir =
        if discs = [] || not shrink then None
        else begin
          (* shrink on the first construction-independent class; a
             construction-bound discrepancy is persisted as-is *)
          let shrinkable (d : Diff.Oracle.discrepancy) =
            match d.Diff.Oracle.d_check with
            | Diff.Oracle.Xta | Diff.Oracle.Store_trip | Diff.Oracle.Ladder ->
              true
            | Diff.Oracle.Truth | Diff.Oracle.Analytic | Diff.Oracle.Bounded
            | Diff.Oracle.Sim -> false
          in
          let q = Diff.Gen.query inst in
          let result =
            match List.find_opt shrinkable discs with
            | Some d ->
              Some
                ( d,
                  Diff.Shrink.shrink cfg ~check:d.Diff.Oracle.d_check
                    ~seed:(seed + index) ~q inst.Diff.Gen.net )
            | None ->
              Option.map
                (fun (d : Diff.Oracle.discrepancy) ->
                  ( d,
                    { Diff.Shrink.sh_net = inst.Diff.Gen.net;
                      sh_xta = Xta.Print.to_string inst.Diff.Gen.net;
                      sh_accepted = 0;
                      sh_tested = 0 } ))
                (match discs with d :: _ -> Some d | [] -> None)
          in
          Option.map
            (fun ((d : Diff.Oracle.discrepancy), r) ->
              let open Store.Json in
              let locs, edges = Ta.Model.size r.Diff.Shrink.sh_net in
              let meta =
                Obj
                  [ ("id", String inst.Diff.Gen.id);
                    ("seed", Int seed);
                    ("index", Int index);
                    ("shape", String (Diff.Gen.shape_name shape));
                    ("check", String (Diff.Oracle.check_name
                                        d.Diff.Oracle.d_check));
                    ("detail", String d.Diff.Oracle.d_detail);
                    ("query", String (Mc.Query.to_string q));
                    ("shrink_accepted", Int r.Diff.Shrink.sh_accepted);
                    ("shrink_tested", Int r.Diff.Shrink.sh_tested);
                    ("locations", Int locs);
                    ("edges", Int edges) ]
              in
              incr shrunk;
              try
                Diff.Shrink.write_entry ~dir:corpus ~id:inst.Diff.Gen.id
                  ~query_text:(Mc.Query.to_string q) ~meta_json:meta r
              with Sys_error msg -> die "--corpus: %s" msg)
            result
        end
      in
      let open Store.Json in
      emit
        (Obj
           ([ ("id", String inst.Diff.Gen.id);
              ("shape", String (Diff.Gen.shape_name shape));
              ("seed", Int seed);
              ("index", Int index);
              ( "sup",
                match v.Diff.Oracle.v_sup with
                | Some s -> Int s
                | None -> Null );
              ("ms", Float v.Diff.Oracle.v_wall_ms);
              ( "discrepancies",
                List
                  (List.map
                     (fun (d : Diff.Oracle.discrepancy) ->
                       Obj
                         [ ( "check",
                             String
                               (Diff.Oracle.check_name d.Diff.Oracle.d_check)
                           );
                           ("detail", String d.Diff.Oracle.d_detail) ])
                     discs) ) ]
           @
           match entry_dir with
           | Some dir -> [ ("corpus", String dir) ]
           | None -> []))
    done;
    let wall_s = Unix.gettimeofday () -. t0 in
    let per_sec = float_of_int count /. wall_s in
    let shape_rows =
      List.filter_map
        (fun shape ->
          Option.map
            (fun (c, d, t) -> (Diff.Gen.shape_name shape, c, d, t))
            (Hashtbl.find_opt per_shape shape))
        Diff.Gen.all_shapes
    in
    if json then
      emit
        (let open Store.Json in
         Obj
           [ ( "summary",
               Obj
                 [ ("instances", Int count);
                   ("discrepant", Int !discrepant);
                   ("shrunk", Int !shrunk);
                   ("wall_s", Float wall_s);
                   ("per_sec", Float per_sec);
                   ( "shapes",
                     Obj
                       (List.map
                          (fun (name, c, d, t) ->
                            ( name,
                              Obj
                                [ ("instances", Int c);
                                  ("discrepancies", Int d);
                                  ("wall_ms", Float t) ] ))
                          shape_rows) ) ] ) ])
    else begin
      Fmt.pr "@.%-12s %10s %14s %10s@." "shape" "instances" "discrepancies"
        "avg ms";
      List.iter
        (fun (name, c, d, t) ->
          Fmt.pr "%-12s %10d %14d %10.1f@." name c d
            (t /. float_of_int (max 1 c)))
        shape_rows;
      Fmt.pr "%d instance%s, %d discrepant, %d shrunk, %.1fs (%.1f/s)@."
        count
        (if count = 1 then "" else "s")
        !discrepant !shrunk wall_s per_sec
    end;
    Option.iter close_out out_chan;
    report_cache cache;
    if !discrepant > 0 then exit 1 else exit_degraded cache
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: generate seeded random timed-automata \
             instances with known-by-construction delay bounds and \
             cross-check every answerer the tool has — the explorer \
             vs ground truth, bounded verdicts on both sides of the \
             sup, textual round-trip, store round-trip (with $(b,--cache)), \
             the incremental ladder on a seeded edit, and simulated \
             measurement for transformed PSM instances.  Any \
             disagreement is a discrepancy; with $(b,--shrink) it is \
             minimised and written into $(b,--corpus) as a replayable \
             reproducer.  Exit codes: 0 all consistent, 1 any \
             discrepancy, 3 usage error, 4 consistent but the store \
             was degraded.")
    Term.(const run $ seed_arg $ count_arg $ fuzz_jobs_arg $ shapes_arg
          $ fuzz_scenarios_arg $ sim_faults_arg $ sim_fault_seed_arg
          $ shrink_arg $ corpus_arg $ cache_arg $ json_arg $ out_arg
          $ skew_arg $ store_retries_arg)

(* --- codegen ----------------------------------------------------------------- *)

let codegen_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"PIM.xta" ~doc:"Platform-independent model.")
  in
  let software =
    Arg.(required & opt (some string) None
         & info [ "software" ] ~docv:"NAME" ~doc:"The software automaton (M).")
  in
  let environment =
    Arg.(required & opt (some string) None
         & info [ "environment" ] ~docv:"NAME" ~doc:"The environment automaton (ENV).")
  in
  let directory =
    Arg.(value & opt string "."
         & info [ "d"; "directory" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let with_harness =
    Arg.(value & flag
         & info [ "harness" ] ~doc:"Also emit the stdin-driven test harness (main.c).")
  in
  let run file software environment directory with_harness =
    let net = load_network file in
    let pim =
      try Transform.Pim.make net ~software ~environment
      with Transform.Pim.Ill_formed msg -> die "%s" msg
    in
    let prefix = Codegen.prefix pim in
    let write name text =
      let path = Filename.concat directory name in
      write_out (Some path) text;
      Fmt.pr "wrote %s@." path
    in
    write (prefix ^ ".h") (Codegen.emit_header pim);
    write (prefix ^ ".c") (Codegen.emit_source pim);
    if with_harness then write "main.c" (Codegen.emit_harness pim)
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Generate C code for the software automaton (the TIMES step).")
    Term.(const run $ file $ software $ environment $ directory $ with_harness)

(* --- export ------------------------------------------------------------- *)

let export_cmd =
  let psm_flag =
    Arg.(value & flag & info [ "psm" ] ~doc:"Export the transformed PSM instead of the PIM.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Include the empty-syringe alarm path.")
  in
  let uppaal =
    Arg.(value & flag
         & info [ "uppaal" ] ~doc:"Emit UPPAAL XML instead of .xta text.")
  in
  let run psm_flag full uppaal out =
    let p = Gpca.Params.default in
    let variant = if full then Gpca.Model.Full else Gpca.Model.Bolus_only in
    let net =
      if psm_flag then (Gpca.Model.psm ~variant p).Transform.psm_net
      else Gpca.Model.network ~variant p
    in
    let text =
      if uppaal then Xta.Uppaal_xml.to_string net else Xta.Print.to_string net
    in
    write_out out text
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write the GPCA PIM or PSM as .xta text or UPPAAL XML.")
    Term.(const run $ psm_flag $ full $ uppaal $ output_arg)

(* --- cache maintenance --------------------------------------------------- *)

(* maintenance never creates: pointing these at a directory without the
   store marker is an error, not an invitation to scan (or gc!) it *)
let open_store_or_die dir =
  match Store.Disk.open_existing dir with
  | Ok store -> store
  | Error msg -> die "%s" msg

let cache_dir_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"DIR" ~doc:"Result store directory (see --cache).")

let cache_stats_cmd =
  let run dir =
    let store = open_store_or_die dir in
    let s = Store.Disk.stats store in
    (* corrupt bytes in their own column: exactly what gc would reclaim *)
    Fmt.pr "%s: %d entr%s, %d bytes, %d corrupt, %d corrupt bytes@." dir
      s.Store.Disk.st_entries
      (if s.Store.Disk.st_entries = 1 then "y" else "ies")
      s.Store.Disk.st_bytes s.Store.Disk.st_corrupt
      s.Store.Disk.st_corrupt_bytes;
    let sessions = List.length (Store.Session.list store) in
    if sessions > 0 then
      Fmt.pr "%s: %d incremental session%s@." dir sessions
        (if sessions = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Entry count and size, corrupt-file count and size (the \
             bytes $(b,gc) would reclaim), and incremental session count.")
    Term.(const run $ cache_dir_arg)

let cache_gc_cmd =
  let run dir =
    let store = open_store_or_die dir in
    let removed = Store.Disk.gc store + Store.Session.gc store in
    Fmt.pr "%s: removed %d file%s@." dir removed
      (if removed = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Delete corrupt entries, corrupt incremental sessions and \
             stale temp files.  Refuses to run on a directory that is \
             not a recognized store.")
    Term.(const run $ cache_dir_arg)

let cache_fsck_cmd =
  let run dir =
    let store = open_store_or_die dir in
    let r = Store.Disk.fsck store in
    List.iter
      (fun (file, problem) -> Fmt.pr "BAD  %s: %s@." file problem)
      (List.rev r.Store.Disk.fk_bad);
    List.iter
      (fun file -> Fmt.pr "TMP  %s: orphaned temp file (writer dead)@." file)
      r.Store.Disk.fk_tmp;
    (* the incremental sessions (v2 manifests, plus any graph blobs an
       older build left) verify on the same pass: digests recomputed per
       automaton from the reparsed network text *)
    let sr = Store.Session.fsck store in
    List.iter
      (fun (file, problem) -> Fmt.pr "BAD  %s: %s@." file problem)
      sr.Store.Session.sk_bad;
    Fmt.pr "%s: %d entr%s ok, %d bad, %d orphaned temp@." dir r.Store.Disk.fk_ok
      (if r.Store.Disk.fk_ok = 1 then "y" else "ies")
      (List.length r.Store.Disk.fk_bad)
      (List.length r.Store.Disk.fk_tmp);
    Fmt.pr "%s: %d session%s ok (v2 manifests), %d bad, %d graph%s@." dir
      sr.Store.Session.sk_ok
      (if sr.Store.Session.sk_ok = 1 then "" else "s")
      (List.length sr.Store.Session.sk_bad)
      sr.Store.Session.sk_graphs
      (if sr.Store.Session.sk_graphs = 1 then "" else "s");
    if r.Store.Disk.fk_bad <> [] || sr.Store.Session.sk_bad <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify every entry (magic, checksum, length, JSON shape, \
             key/file-name agreement) and every incremental session \
             (framing, key-v2 manifest with per-automaton digests \
             recomputed from the stored network).  Orphaned temp files \
             left by dead writers are reported (run $(b,cache gc) to \
             remove them).  Exit 1 when anything is bad.")
    Term.(const run $ cache_dir_arg)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect and maintain a persistent result store (see --cache).")
    [ cache_stats_cmd; cache_gc_cmd; cache_fsck_cmd ]

(* --- serve (batch query service) ----------------------------------------- *)

(* HOST:PORT, :PORT (any interface), or unix:PATH *)
let parse_listen_addr s =
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Analysis.Netserve.Unix_path (String.sub s 5 (String.length s - 5))
  else
    match String.rindex_opt s ':' with
    | None ->
      die "bad --listen %S: expected HOST:PORT, :PORT or unix:PATH" s
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Analysis.Netserve.Tcp (host, p)
      | Some _ | None -> die "bad --listen %S: port must be 0..65535" s)

let sockaddr_to_string = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

(* One line-delimited JSON request per line on stdin; a blank line (or
   EOF) flushes the batch.  The loop itself lives in Analysis.Serve —
   here we wire stdin/stdout, the model-file loader, and the signal
   handlers, then map the outcome to the exit-code contract.  With
   --listen the same protocol is served over a socket by
   Analysis.Netserve instead. *)
let serve_cmd =
  let request_timeout_arg =
    Arg.(value & opt (some string) None
         & info [ "request-timeout" ] ~docv:"DUR"
             ~doc:"Per-request wall-clock deadline (e.g. 500ms, 2s).  A \
                   request that overruns is answered as a diagnosed \
                   $(i,unknown)/$(i,time-budget) outcome; the remaining \
                   requests are unaffected.")
  in
  let max_errors_arg =
    Arg.(value & opt (some int) None
         & info [ "max-errors" ] ~docv:"N"
             ~doc:"Trip wire: stop serving (after finishing the current \
                   batch) once more than $(docv) error responses have \
                   been emitted.  Exit code 4.")
  in
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Serve the same protocol over a socket instead of \
                   stdin/stdout: $(i,HOST:PORT), $(i,:PORT) (any \
                   interface), or $(i,unix:PATH).  Port 0 binds an \
                   ephemeral port, reported on stderr.  The process runs \
                   until SIGTERM/SIGINT drains it (exit 2).")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Listener admission-queue capacity.  A request arriving \
                   at a full queue is refused immediately with a \
                   $(i,busy) response, never left hanging.")
  in
  let max_conns_arg =
    Arg.(value & opt int 64
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Concurrent connection cap.  Over the cap a client gets \
                   a $(i,busy) response and an orderly close.")
  in
  let max_inflight_arg =
    Arg.(value & opt int 16
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"Per-connection cap on admitted-but-unanswered requests \
                   (fairness): a client at its cap gets an immediate \
                   diagnosed $(i,busy) response for the excess, so one \
                   connection can never occupy the whole admission queue.")
  in
  let read_deadline_arg =
    Arg.(value & opt string "10s"
         & info [ "read-deadline" ] ~docv:"DUR"
             ~doc:"Longest a partial request line may sit without new \
                   bytes before the connection is dropped with an error \
                   response (slowloris protection).")
  in
  let model_cache_arg =
    Arg.(value & opt int 16
         & info [ "model-cache" ] ~docv:"N"
             ~doc:"Parsed-model LRU capacity.  Bounds memory when a \
                   long-lived server is asked about many distinct model \
                   files.")
  in
  let run jobs cache budget request_timeout max_errors store_retries listen
      queue max_conns max_inflight read_deadline model_cache =
    let jobs = check_jobs jobs in
    let cache = open_cache ~retries:store_retries cache in
    let budget = budget () in
    let request_timeout =
      Option.map
        (fun s ->
          match Mc.Runctl.parse_duration s with
          | Ok v -> v
          | Error msg -> die "bad --request-timeout %S: %s" s msg)
        request_timeout
    in
    (match max_errors with
     | Some n when n < 0 -> die "--max-errors must be non-negative"
     | Some _ | None -> ());
    if queue < 1 then die "--queue must be at least 1";
    if max_conns < 1 then die "--max-conns must be at least 1";
    if max_inflight < 1 then die "--max-inflight must be at least 1";
    if model_cache < 1 then die "--model-cache must be at least 1";
    let read_deadline =
      match Mc.Runctl.parse_duration read_deadline with
      | Ok v -> v
      | Error msg -> die "bad --read-deadline %S: %s" read_deadline msg
    in
    (* model files parsed once per path, shared across batches; requests
       only read the parsed network, so the pool may share it.  The LRU
       bound matters for --listen: a persistent server fed distinct
       model paths must not grow without limit. *)
    let models : (string, (Ta.Model.network, string) result) Analysis.Lru.t =
      Analysis.Lru.create ~capacity:model_cache ()
    in
    let load_model path =
      Analysis.Lru.find_or_add models path (fun path ->
          match slurp path with
          | text -> (
            match Xta.Parse.network text with
            | Ok net -> Ok net
            | Error msg -> Error (path ^ ": " ^ msg))
          | exception Sys_error msg -> Error msg)
    in
    let drain = Analysis.Serve.drain () in
    (* SIGTERM/SIGINT request a graceful drain: stop reading, cancel
       in-flight evaluations, flush what was already read.  A second
       signal falls through to the default handler (terminate). *)
    let install signal =
      try
        ignore
          (Sys.signal signal
             (Sys.Signal_handle
                (fun _ ->
                  Analysis.Serve.request_drain drain;
                  Sys.set_signal signal Sys.Signal_default)))
      with Invalid_argument _ | Sys_error _ -> ()
    in
    install Sys.sigterm;
    install Sys.sigint;
    let cfg =
      { Analysis.Serve.default_config with
        Analysis.Serve.sv_jobs = jobs;
        sv_budget = budget;
        sv_request_timeout = request_timeout;
        sv_max_errors = max_errors }
    in
    match listen with
    | Some addr ->
      let ncfg =
        { Analysis.Netserve.default_config with
          Analysis.Netserve.ns_addr = parse_listen_addr addr;
          ns_serve = cfg;
          ns_queue = queue;
          ns_max_conns = max_conns;
          ns_max_inflight = max_inflight;
          ns_read_deadline_s = read_deadline }
      in
      let on_ready sa =
        Fmt.epr
          "serve: listening on %s (queue %d, max-conns %d, max-inflight %d, \
           jobs %d)@."
          (sockaddr_to_string sa) queue max_conns max_inflight jobs
      in
      (match
         Analysis.Netserve.listen ncfg ?cache ~drain ~on_ready ~load_model ()
       with
      | Error msg -> die "%s" msg
      | Ok outcome ->
        report_cache cache;
        (match outcome.Analysis.Netserve.no_stop with
         | Analysis.Netserve.Error_limit ->
           Fmt.epr
             "serve: stopping after %d error responses (--max-errors)@."
             outcome.Analysis.Netserve.no_errors;
           exit 4
         | Analysis.Netserve.Drained ->
           Fmt.epr
             "serve: drained (%d response%s over %d connection%s, %d shed)@."
             outcome.Analysis.Netserve.no_served
             (if outcome.Analysis.Netserve.no_served = 1 then "" else "s")
             outcome.Analysis.Netserve.no_conns
             (if outcome.Analysis.Netserve.no_conns = 1 then "" else "s")
             outcome.Analysis.Netserve.no_shed;
           exit 2))
    | None ->
      let read_line =
        Analysis.Serve.fd_line_reader
          ~draining:(fun () -> Analysis.Serve.draining drain)
          Unix.stdin
      in
      let write_line s =
        print_string s;
        print_newline ();
        flush stdout
      in
      let outcome =
        Analysis.Serve.run cfg ?cache ~drain ~load_model ~read_line
          ~write_line ()
      in
      report_cache cache;
      (match outcome.Analysis.Serve.sv_stop with
       | Analysis.Serve.Error_limit ->
         Fmt.epr "serve: stopping after %d error responses (--max-errors)@."
           outcome.Analysis.Serve.sv_errors;
         exit 4
       | Analysis.Serve.Drained ->
         Fmt.epr "serve: drained (%d response%s written)@."
           outcome.Analysis.Serve.sv_served
           (if outcome.Analysis.Serve.sv_served = 1 then "" else "s");
         exit 2
       | Analysis.Serve.Eof -> exit_degraded cache)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Answer line-delimited JSON query requests on stdin — \
             $(b,{\"id\": .., \"model\": \"M.xta\", \"query\": \"..\"}) — \
             one JSON response line each, in request order.  A blank line \
             flushes the current batch: with $(b,--cache), stored results \
             answer instantly and only misses are explored, $(b,--jobs) \
             at a time.  Malformed, over-long or non-UTF-8 request lines \
             get JSON error responses; a worker exception is confined to \
             its request (error object carries the backtrace); SIGTERM or \
             SIGINT drains gracefully.  With $(b,--listen) the same \
             protocol is served over TCP or a Unix-domain socket to many \
             concurrent clients with admission control: a full request \
             queue sheds with an immediate $(i,busy) response, and \
             $(b,{\"stats\": true}) probes report live counters, queue \
             gauges and latency percentiles.  Exit codes: 0 complete, 2 \
             drained by a signal, 3 usage error (including a listener \
             that cannot bind), 4 degraded completion ($(b,--max-errors) \
             tripped, or the store circuit breaker opened).")
    Term.(const run $ jobs_arg $ cache_arg $ budget_term $ request_timeout_arg
          $ max_errors_arg $ store_retries_arg $ listen_arg $ queue_arg
          $ max_conns_arg $ max_inflight_arg $ read_deadline_arg $ model_cache_arg)

let main =
  Cmd.group
    (Cmd.info "psv" ~version:"1.0.0"
       ~doc:"Platform-specific timing verification in model-based implementation.")
    [ table1_cmd; verify_cmd; query_cmd; check_cmd; watch_cmd;
      sweep_schemes_cmd; serve_cmd; cache_cmd; trace_cmd; transform_cmd;
      codegen_cmd; bounds_cmd; simulate_cmd; fuzz_cmd; export_cmd ]

(* fold cmdliner's own error codes (124/125) into the documented
   exit-code contract: anything that is not a clean run is a usage error *)
let () =
  match Cmd.eval main with
  | 0 -> exit 0
  | _ -> exit 3
