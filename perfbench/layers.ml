(* Per-layer probes: each layer's cost measured on the workload's own
   inputs, by timing calls into the layer's public functions from
   outside.  Every workload hands over the (network, query) pairs it
   ran, so the same per-layer metric names exist on every workload and
   each is measured, never a placeholder.

   The explorer is traced through its [expand] hook, which must return
   exactly the successors the inline search would fire: the traced
   search therefore stores and visits the same states, and
   [run_probe] fails the probe if its counts differ from an untraced
   [Mc.Query.eval]. *)

open Common

type acc = {
  cand : Trace.timer;  (* Explorer.candidates *)
  fire : Trace.timer;  (* Explorer.fire: the DBM chain, extrapolate included *)
  side : Trace.timer;  (* the probe's own sampling inside the search *)
  mutable search_ns : int;
  mutable fired : int;
  mutable live : int;
  mutable visited : int;
  mutable stored : int;
  mutable make_ms : float list;
  mutable includes_ns : int;
  mutable includes_calls : int;
  mutable admit_ns : int;
  mutable admit_calls : int;
  mutable eval_ms : float;
  mutable j2_ms : float;
  mutable xta_ms : float list;
  mutable key_us : float list;
  mutable insert_ms : float list;
  mutable lookup_us : float list;
  mutable prepare_us : float list;
  mutable reply_us : float list;
}

let acc () =
  { cand = Trace.timer (); fire = Trace.timer (); side = Trace.timer ();
    search_ns = 0; fired = 0; live = 0; visited = 0; stored = 0;
    make_ms = []; includes_ns = 0; includes_calls = 0; admit_ns = 0;
    admit_calls = 0; eval_ms = 0.; j2_ms = 0.; xta_ms = []; key_us = [];
    insert_ms = []; lookup_us = []; prepare_us = []; reply_us = [] }

(* Sampling caps: enough pairs for a stable per-call time, bounded
   memory on the largest zone graphs. *)
let zone_cap = 20_000
let group_cap = 48
let pre_every = 8
let pre_cap = 4_000

(* [Mc.Query.eval ~jobs:1] rebuilt on the traced expand hook.  With
   [collect] the stored zones (grouped by discrete state) and a sample
   of pre-extrapolation successors are kept and replayed afterwards
   through [Dbm.includes] and [Explorer.admit_pre]. *)
let traced_eval ?(collect = true) acc net q =
  let monitor =
    match q with
    | Mc.Query.Sup_delay { trigger; response; ceiling }
    | Mc.Query.Bounded_response { trigger; response; bound = ceiling } ->
      Some
        (Mc.Monitor.delay ~trigger ~response
           ~clock:Mc.Query.delay_monitor_clock ~ceiling ())
    | Mc.Query.Exists_eventually _ | Mc.Query.Always _ -> None
  in
  let t, make_ms = time_ms (fun () -> Mc.Explorer.make ?monitor net) in
  acc.make_ms <- make_ms :: acc.make_ms;
  let groups = Hashtbl.create 1024 and kept = ref 0 in
  let keep (st : Mc.Explorer.state) =
    if collect && !kept < zone_cap then
      Trace.timed acc.side (fun () ->
          incr kept;
          let k = (st.st_locs, st.st_vars, st.st_mon) in
          let zs = Option.value ~default:[] (Hashtbl.find_opt groups k) in
          if List.length zs < group_cap then
            Hashtbl.replace groups k (Zone.Dbm.copy st.st_zone :: zs))
  in
  let pres = ref [] and npre = ref 0 in
  let sample_pre pool st cd =
    Trace.timed acc.side (fun () ->
        match Mc.Explorer.fire_pre t pool st cd with
        | Mc.Explorer.Fired_live { fl_state; fl_locs; fl_vars; fl_mon; fl_pre } ->
          Option.iter
            (fun (s : Mc.Explorer.state) ->
              Zone.Dbm.Pool.release pool s.Mc.Explorer.st_zone)
            fl_state;
          incr npre;
          pres := (fl_locs, fl_vars, fl_mon, fl_pre) :: !pres
        | Mc.Explorer.Fired_dead -> ())
  in
  let expand pool st =
    let cands = Trace.timed acc.cand (fun () -> Mc.Explorer.candidates t st) in
    List.map
      (fun cd ->
        let succ = Trace.timed acc.fire (fun () -> Mc.Explorer.fire t pool st cd) in
        acc.fired <- acc.fired + 1;
        if succ <> None then acc.live <- acc.live + 1;
        if collect && acc.fired mod pre_every = 0 && !npre < pre_cap then
          sample_pre pool st cd;
        (cd, succ))
      cands
  in
  let reach visit =
    let r = Mc.Explorer.reachable ~expand t visit in
    (r.Mc.Explorer.r_trace, r.Mc.Explorer.r_interrupt, r.Mc.Explorer.r_stats)
  in
  let sup ~bound =
    let waiting = Mc.Explorer.mon_in t "Waiting" in
    let o =
      Mc.Explorer.sup_clock ~expand t
        ~pred:(fun st -> keep st; waiting st)
        ~clock:Mc.Query.delay_monitor_clock
    in
    let outcome =
      match (o.Mc.Explorer.so_interrupt, o.Mc.Explorer.so_sup, bound) with
      | Some reason, s, None -> Mc.Query.Unknown (reason, Some s)
      | None, s, None -> Mc.Query.Sup s
      | None, Mc.Explorer.Sup_unreached, Some _ -> Mc.Query.Holds
      | None, Mc.Explorer.Sup (v, _), Some b ->
        if v <= b then Mc.Query.Holds else Mc.Query.Fails None
      | None, Mc.Explorer.Sup_exceeds _, Some _ -> Mc.Query.Fails None
      | Some _, Mc.Explorer.Sup (v, _), Some b when v > b -> Mc.Query.Fails None
      | Some _, Mc.Explorer.Sup_exceeds _, Some _ -> Mc.Query.Fails None
      | Some reason, s, Some _ -> Mc.Query.Unknown (reason, Some s)
    in
    (outcome, o.Mc.Explorer.so_stats)
  in
  let t0 = now_ns () in
  let outcome, stats =
    match q with
    | Mc.Query.Exists_eventually p ->
      let pred = Mc.Query.compile_pred t p in
      (match reach (fun st -> keep st; pred st) with
       | Some _, _, stats -> (Mc.Query.Holds, stats)
       | None, Some reason, stats -> (Mc.Query.Unknown (reason, None), stats)
       | None, None, stats -> (Mc.Query.Fails None, stats))
    | Mc.Query.Always p ->
      let pred = Mc.Query.compile_pred t p in
      (match reach (fun st -> keep st; not (pred st)) with
       | Some trace, _, stats -> (Mc.Query.Fails (Some trace), stats)
       | None, Some reason, stats -> (Mc.Query.Unknown (reason, None), stats)
       | None, None, stats -> (Mc.Query.Holds, stats))
    | Mc.Query.Sup_delay _ -> sup ~bound:None
    | Mc.Query.Bounded_response { bound; _ } -> sup ~bound:(Some bound)
  in
  acc.search_ns <- acc.search_ns + (now_ns () - t0);
  acc.visited <- acc.visited + stats.Mc.Explorer.visited;
  acc.stored <- acc.stored + stats.Mc.Explorer.stored;
  if collect then begin
    let calls = ref 0 in
    let t1 = now_ns () in
    Hashtbl.iter
      (fun _ zs ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a != b then begin
                  incr calls;
                  ignore (Sys.opaque_identity (Zone.Dbm.includes a b))
                end)
              zs)
          zs)
      groups;
    acc.includes_ns <- acc.includes_ns + (now_ns () - t1);
    acc.includes_calls <- acc.includes_calls + !calls;
    let t2 = now_ns () in
    List.iter
      (fun (locs, vars, mon, pre) ->
        ignore
          (Sys.opaque_identity (Mc.Explorer.admit_pre t ~locs ~vars ~mon ~pre)))
      !pres;
    acc.admit_ns <- acc.admit_ns + (now_ns () - t2);
    acc.admit_calls <- acc.admit_calls + !npre
  end;
  { Mc.Query.res_outcome = outcome; res_stats = stats }

(* The search time not spent generating or firing successors: the
   passed/waiting store, subsumption scans and the query's visit. *)
let store_ns acc = acc.search_ns - acc.cand.ns - acc.fire.ns - acc.side.ns

(* A verdict without its witness: parallel searches may find another
   (equally valid) counterexample. *)
let verdict_text (o : Mc.Query.outcome) =
  match o with
  | Mc.Query.Fails _ -> "fails"
  | Mc.Query.Holds | Mc.Query.Sup _ | Mc.Query.Unknown _ -> outcome_text o

(* One probe through every layer: traced search, plain sequential and
   two-domain evaluation, xta round trip, cache key, store insert and
   lookup, and the serve request/reply pipeline. *)
let run_probe acc tally ~disk ~cache i p =
  let traced = traced_eval acc p.p_net p.p_query in
  let r, eval_ms = time_ms (fun () -> Mc.Query.eval p.p_net p.p_query) in
  acc.eval_ms <- acc.eval_ms +. eval_ms;
  check tally
    (result_text traced = result_text r)
    "%s: traced search %s, untraced %s" p.p_name (result_text traced)
    (result_text r);
  let r2, j2_ms = time_ms (fun () -> Mc.Query.eval ~jobs:2 p.p_net p.p_query) in
  acc.j2_ms <- acc.j2_ms +. j2_ms;
  check tally
    (verdict_text r2.Mc.Query.res_outcome = verdict_text r.Mc.Query.res_outcome)
    "%s: jobs=2 answered %s, jobs=1 %s" p.p_name
    (verdict_text r2.Mc.Query.res_outcome)
    (verdict_text r.Mc.Query.res_outcome);
  let parsed, xta_ms =
    time_ms (fun () -> Xta.Parse.network (Xta.Print.to_string p.p_net))
  in
  acc.xta_ms <- xta_ms :: acc.xta_ms;
  check tally (Result.is_ok parsed) "%s: xta round trip does not parse" p.p_name;
  let key, key_ms = time_ms (fun () -> Analysis.Qcache.key p.p_net p.p_query) in
  acc.key_us <- (1000. *. key_ms) :: acc.key_us;
  let entry =
    { Store.Entry.en_key = key;
      en_query = Mc.Query.to_string p.p_query;
      en_outcome = Analysis.Qcache.outcome_to_entry r.Mc.Query.res_outcome;
      en_stats = Analysis.Qcache.stats_to_entry r.Mc.Query.res_stats;
      en_budget = Analysis.Qcache.entry_budget ();
      en_prov = Analysis.Qcache.provenance ~jobs:1 ~wall_ms:eval_ms }
  in
  let (), insert_ms = time_ms (fun () -> Store.Disk.insert disk entry) in
  acc.insert_ms <- insert_ms :: acc.insert_ms;
  let found, lookup_ms = time_ms (fun () -> Store.Disk.lookup disk key) in
  acc.lookup_us <- (1000. *. lookup_ms) :: acc.lookup_us;
  check tally
    (match found with
     | Store.Disk.Hit e -> e.Store.Entry.en_outcome = entry.Store.Entry.en_outcome
     | Store.Disk.Miss | Store.Disk.Corrupt _ | Store.Disk.Unavailable _ -> false)
    "%s: store lookup lost the inserted entry" p.p_name;
  let line =
    Store.Json.to_string
      (Store.Json.Obj
         [ ("id", Store.Json.Int i);
           ("model", Store.Json.String p.p_name);
           ("query", Store.Json.String (Mc.Query.to_string p.p_query)) ])
  in
  let prepared, prepare_ms =
    time_ms (fun () ->
        Analysis.Serve.prepare Analysis.Serve.default_config ~cache
          ~load_model:(fun _ -> Ok p.p_net)
          line)
  in
  acc.prepare_us <- (1000. *. prepare_ms) :: acc.prepare_us;
  check tally
    (match prepared with `Hit _ -> true | `Err _ | `Run _ | `Stats _ -> false)
    "%s: serve did not answer from the store" p.p_name;
  let _, reply_ms =
    time_ms (fun () ->
        Store.Json.to_string
          (fst (Analysis.Serve.reply_json ~cache (`Ok (Store.Json.Int i, r)))))
  in
  acc.reply_us <- (1000. *. reply_ms) :: acc.reply_us

let run tally ~scratch probes =
  let acc = acc () in
  let dir = fresh_dir scratch "probe-store" in
  let cache = open_cache dir in
  let disk = Analysis.Qcache.disk cache in
  List.iteri (run_probe acc tally ~disk ~cache) probes;
  rm_rf dir;
  acc

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let s_of_ns ns = float_of_int ns /. 1e9

(* [peak_mb] is the workload's peak heap, read before the probes ran. *)
let metrics acc ~peak_mb ~coverage ~overhead =
  [ metric "heap.peak_mb" "MB" peak_mb;
    metric "explorer.make_ms" "ms" (median acc.make_ms);
    metric "explorer.candidates_s" "s" (s_of_ns acc.cand.ns);
    metric "explorer.fire_s" "s" (s_of_ns acc.fire.ns);
    metric "explorer.store_s" "s" (s_of_ns (store_ns acc));
    metric "explorer.fired" "count" (float_of_int acc.fired);
    metric "explorer.live_ratio" "ratio" (ratio acc.live acc.fired);
    metric "explorer.kept_ratio" "ratio" (ratio acc.stored acc.live);
    metric "explorer.visited" "count" (float_of_int acc.visited);
    metric "explorer.stored" "count" (float_of_int acc.stored);
    metric "dbm.includes_ns" "ns"
      (float_of_int acc.includes_ns /. float_of_int (max 1 acc.includes_calls));
    metric "dbm.admit_pre_ns" "ns"
      (float_of_int acc.admit_ns /. float_of_int (max 1 acc.admit_calls));
    metric "query.eval_ms" "ms" acc.eval_ms;
    metric "parsearch.eval_j2_ms" "ms" acc.j2_ms;
    metric "xta.roundtrip_ms" "ms" (median acc.xta_ms);
    metric "qcache.key_us" "us" (median acc.key_us);
    metric "store.insert_ms" "ms" (median acc.insert_ms);
    metric "store.lookup_us" "us" (median acc.lookup_us);
    metric "serve.prepare_us" "us" (median acc.prepare_us);
    metric "serve.reply_us" "us" (median acc.reply_us);
    metric "trace.coverage" "ratio" coverage;
    metric "trace.overhead" "ratio" overhead ]
