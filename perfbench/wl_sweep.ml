(* sweep-grid: Analysis.Sweep over CI's 1280-point grid -- small base,
   requirement 150, an explorer audit of every 23rd analytic decision,
   one job, prefilter on.  About 80% of the points are decided
   analytically and ~160 are medium explorations, so the per-point
   costs of Scheme / Bounds / Gpca.Sweep_space / Transform show here.
   The grid is swept as 32 slices of 40 points (the slowest axes, so
   the in-run dedup memo loses almost nothing) and a round is the whole
   grid, so every run sweeps whole grids.  An op is one grid point:
   points are timed a slice at a time, op_p50_ms is the median over the
   run's grids of the time per point, and ops_per_s is points per
   second. *)

open Common

let axes =
  [ "period=20,40,60,80"; "poll=5,10,20,80,120"; "mech=0,1"; "buffer=1,2";
    "policy=0,1"; "signal=0,1"; "in_dmax=2,5"; "out_dmax=5,10" ]

let req = 150
let slices = 32

let grid () =
  let parsed =
    List.map
      (fun s ->
        match Scheme.Grid.parse_axis s with
        | Ok ax -> ax
        | Error msg -> failwith msg)
      axes
  in
  match Scheme.Grid.make parsed with Ok g -> g | Error msg -> failwith msg

let setup () =
  let g = grid () in
  (Scheme.Grid.cardinality g, Gpca.Sweep_space.build ~base:Gpca.Sweep_space.Small ~req g)

let config ~prefilter ~audit verdicts lo =
  { Analysis.Sweep.default_config with
    Analysis.Sweep.sw_prefilter = prefilter;
    sw_audit = audit;
    sw_limit = Some 500_000;
    sw_emit =
      Some
        (fun pr ->
          Bytes.set verdicts (lo + pr.Analysis.Sweep.pr_index)
            (Reference.verdict_char pr.Analysis.Sweep.pr_verdict)) }

(* The reference: every point model checked, on the whole grid. *)
let reference_json () =
  let points, build = setup () in
  let verdicts = Bytes.make points '?' in
  let o =
    Analysis.Sweep.run (config ~prefilter:false ~audit:0 verdicts 0) ~points ~build
  in
  Store.Json.Obj
    [ ("axes", Store.Json.List (List.map (fun a -> Store.Json.String a) axes));
      ("req", Store.Json.Int req);
      ("points", Store.Json.Int points);
      ("pass", Store.Json.Int o.Analysis.Sweep.o_pass);
      ("fail", Store.Json.Int o.Analysis.Sweep.o_fail);
      ("unknown", Store.Json.Int o.Analysis.Sweep.o_unknown);
      ("invalid", Store.Json.Int o.Analysis.Sweep.o_invalid);
      ("digest", Store.Json.String (Reference.digest (Bytes.to_string verdicts))) ]

type round = {
  mutable mc_runs : int;
  mutable memo_hits : int;
  mutable decided : int;
}

let run cfg =
  let tally = tally () in
  let ref_points, ref_digest = Reference.sweep_grid () in
  let (points, build), setup_ms = repeated_setup ~dispose:ignore setup in
  check tally (points = ref_points) "sweep-grid: %d points, reference has %d" points
    ref_points;
  let per = points / slices in
  let verdicts = Bytes.make points '?' in
  (* the counts of the grid being swept *)
  let cur = ref { mc_runs = 0; memo_hits = 0; decided = 0 } in
  (* [wrap] lets the traced run instrument the build callback *)
  let slice ?(wrap = fun b -> b) i =
    let s = i mod slices in
    let lo = s * per in
    if s = 0 then begin
      Bytes.fill verdicts 0 points '?';
      cur := { mc_runs = 0; memo_hits = 0; decided = 0 }
    end;
    let o, ms =
      time_ms (fun () ->
          Analysis.Sweep.run
            (config ~prefilter:true ~audit:23 verdicts lo)
            ~points:per
            ~build:(wrap (fun j -> build (lo + j))))
    in
    let r = !cur in
    r.mc_runs <- r.mc_runs + o.Analysis.Sweep.o_mc_runs;
    r.memo_hits <- r.memo_hits + o.Analysis.Sweep.o_memo_hits;
    r.decided <-
      r.decided + o.Analysis.Sweep.o_analytic_pass + o.Analysis.Sweep.o_analytic_fail
      + o.Analysis.Sweep.o_invalid;
    check tally
      (o.Analysis.Sweep.o_audit_mismatches = [])
      "sweep-grid slice %d: %d audited analytic decisions contradicted" s
      (List.length o.Analysis.Sweep.o_audit_mismatches);
    if s = slices - 1 then begin
      let got = Reference.digest (Bytes.to_string verdicts) in
      check tally (got = ref_digest)
        "sweep-grid: verdict digest %s, reference %s" got ref_digest
    end;
    ms /. float_of_int per
  in
  (* per-point time of each whole grid: the mean over its slices *)
  let grids l = List.map (fun ms -> ms /. float_of_int slices) (chunk_sums slices l) in
  let round_json () =
    [ ("sweep.mc_runs", Store.Json.Int !cur.mc_runs);
      ("sweep.memo_hits", Store.Json.Int !cur.memo_hits);
      ( "sweep.skip_rate",
        Store.Json.Float (float_of_int !cur.decided /. float_of_int points) ) ]
  in
  if not cfg.trace then begin
    let slice_ms, raw = window ~round:slices ~seconds:cfg.seconds slice in
    let op_ms = grids slice_ms and raw = grids raw in
    let points_per_s = 1000. /. (sum op_ms /. float_of_int (List.length op_ms)) in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = end_to_end ~setup_ms ~op_ms ~ops_per_s:points_per_s;
      report =
        ("points_per_s", Store.Json.Float points_per_s)
        :: raw_report raw
        :: heap_report ()
        :: ("grids", Store.Json.Int (List.length op_ms))
        :: round_json () }
  end
  else begin
    let plain, _ = window ~round:slices ~seconds:(cfg.seconds /. 2.) slice in
    (* explored points' networks, for the per-layer probes *)
    let explored = ref [] in
    let wrap b j =
      let sp =
        Trace.span ~layer:"sweep.build" "build" (fun () -> b j)
      in
      { sp with
        Analysis.Sweep.sp_net =
          (fun () ->
            let net =
              Trace.span ~layer:"sweep.net" "net" (fun () -> sp.Analysis.Sweep.sp_net ())
            in
            explored := (sp, net) :: !explored;
            net) }
    in
    Trace.enabled := true;
    let traced, _ =
      window ~round:slices ~seconds:(cfg.seconds /. 2.) (fun i ->
          Trace.span ~layer:"bench" "slice" (fun () ->
              Trace.span ~layer:"sweep.explore" "sweep" (fun () -> slice ~wrap i)))
    in
    Trace.enabled := false;
    let ledger, coverage = Trace.ledger () in
    let overhead = median (grids traced) /. median (grids plain) in
    let explored = Array.of_list (List.rev !explored) in
    let n = Array.length explored in
    let probes =
      List.init (min 16 n) (fun k ->
          let sp, net = explored.(k * n / min 16 n) in
          { p_name = sp.Analysis.Sweep.sp_key;
            p_net = net;
            p_query =
              sup_query ~trigger:sp.Analysis.Sweep.sp_trigger
                ~response:sp.Analysis.Sweep.sp_response ~ceiling:req })
    in
    let peak_mb = peak_heap_mb () in
    let acc = Layers.run tally ~scratch:cfg.scratch probes in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = Layers.metrics acc ~peak_mb ~coverage ~overhead;
      report =
        ( "ledger_ms",
          Store.Json.Obj (List.map (fun (l, ms) -> (l, Store.Json.Float ms)) ledger) )
        :: round_json () }
  end
