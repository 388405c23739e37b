(* table1: the seven sup queries of the explorer suite, sequential, no
   store.  Zone-dense search: DBM and explorer-store changes show here
   with no store or network in the way.  An op is one pass over the
   seven queries, so op_p50_ms is the Table-I verify time; each query is
   timed (and host-speed scaled) on its own and a pass is their sum.
   Set-up is building the seven networks (the PSMs through the
   transformation).  One untimed warm-up pass runs before the timed
   ones, so no timed pass starts on a cold heap. *)

open Common

let check_one tally expected p r =
  let want = List.assoc_opt p.p_name expected in
  check tally
    (want = Some (result_text r))
    "table1 %s: got %s, expected %s" p.p_name (result_text r)
    (Option.value want ~default:"(no reference)")

(* The i-th query of the pass sequence, plainly or on the traced
   expand hook.  A traced query is one span with the candidate, firing
   and explorer-construction time carved out of it, so the span's own
   remainder is the passed/waiting store. *)
let query ?acc tally expected suite i =
  let p = suite.(i mod Array.length suite) in
  let r, ms =
    time_ms (fun () ->
        match acc with
        | None -> Mc.Query.eval p.p_net p.p_query
        | Some acc ->
          Trace.span ~layer:"bench" p.p_name (fun () ->
              Trace.span ~layer:"explorer.store" "search" (fun () ->
                  let c0 = acc.Layers.cand.Trace.ns
                  and f0 = acc.Layers.fire.Trace.ns in
                  let r = Layers.traced_eval ~collect:false acc p.p_net p.p_query in
                  Trace.carve ~layer:"explorer.candidates" (acc.Layers.cand.Trace.ns - c0);
                  Trace.carve ~layer:"explorer.fire" (acc.Layers.fire.Trace.ns - f0);
                  Trace.carve ~layer:"explorer.make"
                    (int_of_float (1e6 *. List.hd acc.Layers.make_ms));
                  r)))
  in
  check_one tally expected p r;
  ms

let run cfg =
  let tally = tally () in
  let expected = Reference.table1 () in
  let suite, setup_ms = repeated_setup ~dispose:ignore table1_suite in
  let suite = Array.of_list suite in
  let n = Array.length suite in
  let warm, warm_ms =
    time_ms (fun () -> Array.map (fun p -> (p, Mc.Query.eval p.p_net p.p_query)) suite)
  in
  Array.iter (fun (p, r) -> check_one tally expected p r) warm;
  let answers =
    Array.to_list
      (Array.map (fun (p, r) -> (p.p_name, Store.Json.String (result_text r))) warm)
  in
  if not cfg.trace then begin
    let op_ms, raw = window ~round:n ~seconds:cfg.seconds (query tally expected suite) in
    let op_ms = chunk_sums n op_ms and raw = chunk_sums n raw in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = end_to_end ~setup_ms ~op_ms ~ops_per_s:(sequential_rate op_ms);
      report =
        [ ("verify_s", Store.Json.Float (median op_ms /. 1000.));
          raw_report raw;
          heap_report ();
          ("warmup_pass_ms_raw", Store.Json.Float warm_ms);
          ("passes", Store.Json.Int (List.length op_ms));
          ("answers", Store.Json.Obj answers) ] }
  end
  else begin
    let half = cfg.seconds /. 2. in
    let plain, _ = window ~round:n ~seconds:half (query tally expected suite) in
    let acc = Layers.acc () in
    Trace.enabled := true;
    let traced, _ = window ~round:n ~seconds:half (query ~acc tally expected suite) in
    Trace.enabled := false;
    let plain = chunk_sums n plain and traced = chunk_sums n traced in
    let ledger, coverage = Trace.ledger () in
    let overhead = median traced /. median plain in
    let psm_ms = median (List.init 5 (fun _ -> snd (time_ms gpca_psm))) in
    let peak_mb = peak_heap_mb () in
    let probes = Layers.run tally ~scratch:cfg.scratch (Array.to_list suite) in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = Layers.metrics probes ~peak_mb ~coverage ~overhead;
      report =
        [ ("verify_s_untraced", Store.Json.Float (median plain /. 1000.));
          ("verify_s_traced", Store.Json.Float (median traced /. 1000.));
          ("transform.psm_ms", Store.Json.Float psm_ms);
          ( "ledger_ms",
            Store.Json.Obj (List.map (fun (l, ms) -> (l, Store.Json.Float ms)) ledger) );
          ("answers", Store.Json.Obj answers) ] }
  end
