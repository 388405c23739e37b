(* Chaos tests of the store fault plane: seeded fault schedules are
   replayed over the query cache and the definitive verdicts must come
   out identical to a fault-free run — a sick store may cost time,
   never an answer.  Also covered: concurrent writers under transient
   faults, the degraded-mode circuit breaker, silent write loss, and a
   simulated SIGINT in the write/rename window. *)

let tmp_counter = ref 0

let with_store_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_chaos_test_%d_%d" (Unix.getpid ()) !tmp_counter)
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

let model_text =
  {|network chaostest;

clock x;
chan a, b;

process P {
  state
    Idle,
    Busy { x <= 5 };
  init Idle;
  trans
    Idle -> Busy { sync a!; reset x; },
    Busy -> Idle { guard x >= 1; sync b!; };
}

process Q {
  state S;
  init S;
  trans
    S -> S { sync a?; },
    S -> S { sync b?; };
}
|}

let parse_net text =
  match Xta.Parse.network text with
  | Ok net -> net
  | Error msg -> Alcotest.failf "model parse: %s" msg

let parse_query text =
  match Mc.Query.parse text with
  | Ok q -> q
  | Error msg -> Alcotest.failf "query %S: %s" text msg

(* A mix of verdict shapes: holds, refuted-with-trace, and a sup. *)
let query_texts =
  [ "E<> P.Busy";
    "A[] P.Idle";
    "A[] not (P.Busy and P.Idle)";
    "E<> (P.Idle and Q.S)";
    "sup: a -> b ceiling 100";
    "E<> Q.S" ]

let profile text =
  match Fault.Profile.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "profile %S: %s" text msg

let open_store ?io ?retry dir =
  match Store.Disk.open_ ?io ?retry dir with
  | Ok s -> s
  | Error msg -> Alcotest.failf "open_: %s" msg

(* Reference outcomes from a fault-free run, computed once. *)
let clean_outcomes =
  lazy
    (with_store_dir (fun dir ->
         let cache =
           Analysis.Qcache.make ~warn:(fun _ -> ()) (open_store dir)
         in
         let net = parse_net model_text in
         List.map
           (fun text ->
             (Analysis.Qcache.eval cache net (parse_query text))
               .Mc.Query.res_outcome)
           query_texts))

let check_against_clean label outcomes =
  List.iter2
    (fun text (clean, got) ->
      if got <> clean then
        Alcotest.failf "%s: %S diverged: %a <> %a" label text
          Mc.Query.pp_outcome got Mc.Query.pp_outcome clean)
    query_texts
    (List.combine (Lazy.force clean_outcomes) outcomes)

(* --- verdict equality under seeded fault schedules ------------------------ *)

let fault_profiles =
  [ "eio=0.08,seed=11";
    "eagain=0.1,seed=21";
    "short=0.15,seed=2";
    "fsync=0.3,seed=33";
    "rename=0.25,seed=5";
    "eio=0.04,eagain=0.04,short=0.08,fsync=0.08,rename=0.15,seed=4" ]

let test_verdicts_under_faults () =
  List.iter
    (fun spec ->
      with_store_dir (fun dir ->
          (* create the store on a healthy disk, then let the fault
             schedule loose on every subsequent operation *)
          ignore (open_store dir);
          let stats = Fault.Io.stats () in
          let io = Fault.Io.inject ~stats (profile spec) Fault.Io.real in
          let store =
            open_store ~io ~retry:(Fault.Retry.with_attempts 4) dir
          in
          let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) store in
          let net = parse_net model_text in
          (* two passes: the first populates (or fails to), the second
             hits, recomputes through corruption, or rides the breaker —
             either way the verdicts must not move *)
          for pass = 1 to 2 do
            check_against_clean
              (Printf.sprintf "profile %S pass %d" spec pass)
              (List.map
                 (fun text ->
                   (Analysis.Qcache.eval cache net (parse_query text))
                     .Mc.Query.res_outcome)
                 query_texts)
          done;
          (* after the storm: gc with a healthy handle leaves a store
             fsck would bless *)
          let clean = open_store dir in
          ignore (Store.Disk.gc clean);
          let r = Store.Disk.fsck clean in
          Alcotest.(check int)
            (Printf.sprintf "profile %S: fsck clean after gc" spec)
            0
            (List.length r.Store.Disk.fk_bad)))
    fault_profiles

(* --- concurrent writers under transient faults ---------------------------- *)

let test_concurrent_writers_transients () =
  with_store_dir (fun dir ->
      ignore (open_store dir);
      (* one shared injected interface: the op schedule interleaves
         across domains, the atomic counter keeps it race-free *)
      let io =
        Fault.Io.inject (profile "eio=0.02,eagain=0.02,seed=7") Fault.Io.real
      in
      let sample key query =
        { Store.Entry.en_key = key;
          en_query = query;
          en_outcome = Mc.Query.Holds;
          en_stats = { Mc.Explorer.visited = 1; stored = 1; frontier = 0 };
          en_budget = Store.Entry.unlimited;
          en_prov =
            { Store.Entry.pv_tool = "psv/chaos";
              pv_jobs = 1;
              pv_wall_ms = 0.1;
              pv_created = 1700000000.0 } }
      in
      let worker d () =
        let local = open_store ~io ~retry:(Fault.Retry.with_attempts 5) dir in
        for i = 0 to 24 do
          let key = Store.D128.of_string (Printf.sprintf "key-%d" (i mod 8)) in
          match
            Store.Disk.insert local (sample key (Printf.sprintf "w%d-%d" d i))
          with
          | () -> ()
          | exception exn when Fault.Retry.transient exn ->
            (* retries exhausted under a hostile schedule: acceptable,
               as long as the store stays consistent *)
            ()
        done
      in
      let doms = List.init 4 (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join doms;
      let clean = open_store dir in
      let s = Store.Disk.stats clean in
      Alcotest.(check int) "no torn entries" 0 s.Store.Disk.st_corrupt;
      Alcotest.(check bool) "most entries landed" true
        (s.Store.Disk.st_entries >= 1);
      ignore (Store.Disk.gc clean);
      let r = Store.Disk.fsck clean in
      Alcotest.(check int) "fsck clean" 0 (List.length r.Store.Disk.fk_bad);
      Alcotest.(check (list string)) "no orphaned temp files" []
        r.Store.Disk.fk_tmp)

(* --- breaker: a persistently sick store degrades, answers keep coming ----- *)

let test_breaker_degrades () =
  with_store_dir (fun dir ->
      ignore (open_store dir);
      (* entry reads always fail at the host level; writes succeed, so
         the first pass populates and the second pass gets sick reads *)
      let io =
        { Fault.Io.real with
          Fault.Io.read_file =
            (fun path ->
              if Filename.check_suffix path ".psve" then
                raise (Unix.Unix_error (Unix.EIO, "read", path))
              else Fault.Io.real.Fault.Io.read_file path) }
      in
      let store = open_store ~io ~retry:Fault.Retry.no_retry dir in
      (* threshold 1 because a successful recompute-and-insert records a
         breaker success between any two sick reads, resetting the
         consecutive count; frozen clock so the cooldown never elapses
         and the breaker stays open once tripped *)
      let breaker =
        Fault.Breaker.create ~threshold:1 ~now:(fun () -> 0.) ()
      in
      let warned = ref 0 in
      let cache =
        Analysis.Qcache.make ~warn:(fun _ -> incr warned) ~breaker store
      in
      let net = parse_net model_text in
      let eval_all () =
        List.map
          (fun text ->
            (Analysis.Qcache.eval cache net (parse_query text))
              .Mc.Query.res_outcome)
          query_texts
      in
      check_against_clean "populate pass" (eval_all ());
      Alcotest.(check bool) "not yet degraded" false
        (Analysis.Qcache.degraded cache);
      check_against_clean "degraded pass" (eval_all ());
      Alcotest.(check bool) "breaker tripped" true
        (Analysis.Qcache.degraded cache);
      Alcotest.(check bool) "store faults were counted" true
        (Analysis.Qcache.errors cache >= 1);
      Alcotest.(check bool) "warnings were emitted" true (!warned >= 1);
      Alcotest.(check int) "no hits off a sick store" 0
        (Analysis.Qcache.hits cache))

(* --- silent write loss: corruption is a miss, not a failure --------------- *)

let test_fsync_loss_recomputes () =
  with_store_dir (fun dir ->
      ignore (open_store dir);
      let io = Fault.Io.inject (profile "fsync=1,seed=5") Fault.Io.real in
      let store = open_store ~io dir in
      let warned = ref 0 in
      let cache = Analysis.Qcache.make ~warn:(fun _ -> incr warned) store in
      let net = parse_net model_text in
      let eval_all () =
        List.map
          (fun text ->
            (Analysis.Qcache.eval cache net (parse_query text))
              .Mc.Query.res_outcome)
          query_texts
      in
      check_against_clean "truncated-write pass 1" (eval_all ());
      (* every stored entry lost its tail: each lookup is Corrupt, each
         query recomputes, and none of it counts against the breaker *)
      check_against_clean "truncated-write pass 2" (eval_all ());
      Alcotest.(check bool) "corruption warned" true (!warned > 0);
      Alcotest.(check int) "corruption is not a store fault" 0
        (Analysis.Qcache.errors cache);
      Alcotest.(check bool) "and does not degrade the cache" false
        (Analysis.Qcache.degraded cache);
      Alcotest.(check int) "every lookup recomputed" 0
        (Analysis.Qcache.hits cache))

(* --- SIGINT in the write/rename window ------------------------------------ *)

let test_interrupt_window () =
  with_store_dir (fun dir ->
      let real = Fault.Io.real in
      ignore (open_store dir);
      (* the signal arrives after the tmp file is written: rename raises
         Sys.Break, and so does the best-effort cleanup — exactly what a
         writer dying in the publish window leaves behind *)
      let armed = ref true in
      let io =
        { real with
          Fault.Io.rename =
            (fun src dst ->
              if !armed then raise Sys.Break
              else real.Fault.Io.rename src dst);
          Fault.Io.remove =
            (fun path ->
              if !armed then begin
                armed := false;
                raise Sys.Break
              end
              else real.Fault.Io.remove path) }
      in
      let store = open_store ~io dir in
      let key = Store.D128.of_string "interrupted" in
      let entry =
        { Store.Entry.en_key = key;
          en_query = "E<> P.Busy";
          en_outcome = Mc.Query.Holds;
          en_stats = { Mc.Explorer.visited = 1; stored = 1; frontier = 0 };
          en_budget = Store.Entry.unlimited;
          en_prov =
            { Store.Entry.pv_tool = "psv/chaos";
              pv_jobs = 1;
              pv_wall_ms = 0.1;
              pv_created = 1700000000.0 } }
      in
      (match Store.Disk.insert store entry with
       | () -> Alcotest.fail "the interrupt must propagate"
       | exception Sys.Break -> ());
      let clean = open_store dir in
      (match Store.Disk.lookup clean key with
       | Store.Disk.Miss -> ()
       | _ -> Alcotest.fail "a torn publish must stay invisible");
      let tmps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = ".tmp")
      in
      Alcotest.(check int) "one temp file left behind" 1 (List.length tmps);
      (* while the writer pid is alive the temp is presumed in-flight *)
      let r = Store.Disk.fsck clean in
      Alcotest.(check int) "fsck: store content clean" 0
        (List.length r.Store.Disk.fk_bad);
      Alcotest.(check (list string)) "live writer's temp not flagged" []
        r.Store.Disk.fk_tmp;
      Alcotest.(check int) "gc leaves a live writer's temp alone" 0
        (Store.Disk.gc clean);
      (* the writer dies: model that by re-owning the temp under a pid
         that cannot exist (beyond pid_max) *)
      let orphan = Filename.concat dir ".tmp.9999999.0" in
      Sys.rename (Filename.concat dir (List.hd tmps)) orphan;
      let r = Store.Disk.fsck clean in
      Alcotest.(check int) "fsck reports the orphan" 1
        (List.length r.Store.Disk.fk_tmp);
      Alcotest.(check int) "orphan does not make the store unclean" 0
        (List.length r.Store.Disk.fk_bad);
      Alcotest.(check int) "gc reaps the orphan" 1 (Store.Disk.gc clean);
      let r = Store.Disk.fsck clean in
      Alcotest.(check (list string)) "fsck clean afterwards" []
        r.Store.Disk.fk_tmp;
      (* and the store still works *)
      Store.Disk.insert clean entry;
      match Store.Disk.lookup clean key with
      | Store.Disk.Hit _ -> ()
      | _ -> Alcotest.fail "store unusable after recovery")

let suite =
  [ Alcotest.test_case "verdicts stable under fault schedules" `Slow
      test_verdicts_under_faults;
    Alcotest.test_case "concurrent writers with transients" `Slow
      test_concurrent_writers_transients;
    Alcotest.test_case "breaker degrades, answers continue" `Quick
      test_breaker_degrades;
    Alcotest.test_case "silent write loss recomputes" `Quick
      test_fsync_loss_recomputes;
    Alcotest.test_case "interrupt in the publish window" `Quick
      test_interrupt_window ]
