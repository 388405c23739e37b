(* fuzz-corpus: Diff.Oracle.run on seeded instances, round-robin over
   the four shapes, with two-domain parallel cross-checks, two
   simulation scenarios and a scratch store attached.  Thousands of
   tiny queries: fixed per-query costs dominate here (compile,
   transform, xta round trip, store write, Parsearch start-up,
   simulation), and table1 hides all of them.  An op is one round: one
   instance of each shape, each generated and run through the whole
   oracle.  The seed picks the instances.  Set-up opens the store and
   runs a fixed warm-up round, so lazy start-up costs land in set-up,
   not in the first measured round. *)

open Common

let shapes = Array.of_list Diff.Gen.all_shapes

let oracle cache =
  { Diff.Oracle.default with
    Diff.Oracle.jobs = 2;
    scenarios = 2;
    cache = Some cache }

(* The warm-up round: fixed instances, the same on every run. *)
let warmup k = Diff.Gen.instance ~seed:0 ~index:k shapes.(k)

let run cfg =
  let tally = tally () in
  let instance i =
    Diff.Gen.instance ~seed:cfg.seed ~index:i shapes.(i mod Array.length shapes)
  in
  let judge (v : Diff.Oracle.verdict) =
    check tally
      (v.Diff.Oracle.v_discrepancies = [])
      "fuzz-corpus %s: %s" v.Diff.Oracle.v_id
      (String.concat "; "
         (List.map
            (fun d ->
              Diff.Oracle.check_name d.Diff.Oracle.d_check ^ ": " ^ d.Diff.Oracle.d_detail)
            v.Diff.Oracle.v_discrepancies))
  in
  let setup () =
    let dir = fresh_dir cfg.scratch "fuzz-store" in
    let cache = open_cache dir in
    Array.iteri
      (fun k _ -> judge (Diff.Oracle.run (oracle cache) (warmup k)))
      shapes;
    (dir, cache)
  in
  let (dir, cache), setup_ms = repeated_setup ~dispose:(fun (d, _) -> rm_rf d) setup in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ocfg = oracle cache in
  let op i =
    let v, ms = time_ms (fun () -> Diff.Oracle.run ocfg (instance i)) in
    judge v;
    ms
  in
  let round = Array.length shapes in
  if not cfg.trace then begin
    let instance_ms, raw = window ~round ~seconds:cfg.seconds op in
    let op_ms = chunk_sums round instance_ms in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = end_to_end ~setup_ms ~op_ms ~ops_per_s:(sequential_rate op_ms);
      report =
        [ raw_report (chunk_sums round raw);
          heap_report ();
          ("instances", Store.Json.Int (List.length instance_ms));
          ("instances_per_s", Store.Json.Float (sequential_rate instance_ms)) ] }
  end
  else begin
    let plain, _ = window ~round ~seconds:(cfg.seconds /. 2.) op in
    let first = List.length plain in
    let oracle_ms = Array.make round [] and gen_ms = ref [] in
    let sampled = ref [] in
    Trace.enabled := true;
    let traced, _ =
      window ~round ~seconds:(cfg.seconds /. 2.) (fun i ->
          let shape = i mod round in
          let v, ms =
            time_ms (fun () ->
                Trace.span ~req:(first + i) ~layer:"bench" "instance" (fun () ->
                    let inst, g_ms =
                      time_ms (fun () ->
                          Trace.span ~req:(first + i) ~layer:"diff.gen" "gen"
                            (fun () -> instance (first + i)))
                    in
                    gen_ms := g_ms :: !gen_ms;
                    if i < 6 * round then sampled := inst :: !sampled;
                    let v, o_ms =
                      time_ms (fun () ->
                          Trace.span ~req:(first + i)
                            ~layer:("diff.oracle." ^ Diff.Gen.shape_name shapes.(shape))
                            "oracle"
                            (fun () -> Diff.Oracle.run ocfg inst))
                    in
                    oracle_ms.(shape) <- o_ms :: oracle_ms.(shape);
                    v))
          in
          judge v;
          ms)
    in
    Trace.enabled := false;
    let ledger, coverage = Trace.ledger () in
    let overhead = median (chunk_sums round traced) /. median (chunk_sums round plain) in
    let probes =
      List.rev_map
        (fun (inst : Diff.Gen.instance) ->
          { p_name = inst.Diff.Gen.id; p_net = inst.Diff.Gen.net;
            p_query = Diff.Gen.query inst })
        !sampled
    in
    let peak_mb = peak_heap_mb () in
    let acc = Layers.run tally ~scratch:cfg.scratch probes in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = Layers.metrics acc ~peak_mb ~coverage ~overhead;
      report =
        [ ("diff.gen_ms", Store.Json.Float (median !gen_ms));
          ( "diff.oracle_ms",
            Store.Json.Obj
              (Array.to_list
                 (Array.mapi
                    (fun k l ->
                      (Diff.Gen.shape_name shapes.(k), Store.Json.Float (median l)))
                    oracle_ms)) );
          ( "ledger_ms",
            Store.Json.Obj (List.map (fun (l, ms) -> (l, Store.Json.Float ms)) ledger) ) ] }
  end
