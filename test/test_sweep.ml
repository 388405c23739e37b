(* The sweep engine and its GPCA design space.

   Three layers under test: Scheme.Grid (axis parsing and the mixed-radix
   decode), the Analysis.Sweep race (analytic prefilter vs the explorer
   must be an optimisation, never an answer change), and the bounds the
   race rests on — the seeded property test pins the contract that for
   every valid, loss-free scheme point the model-checked supremum lies
   between the analytic lower and upper bounds. *)

let small = Gpca.Sweep_space.Small

let grid_of axes =
  match Scheme.Grid.make axes with
  | Ok g -> g
  | Error msg -> Alcotest.failf "grid: %s" msg

(* --- Grid: parsing and decode ------------------------------------------- *)

let test_parse_axis () =
  let ok spec = match Scheme.Grid.parse_axis spec with
    | Ok (name, vs) -> (name, vs)
    | Error msg -> Alcotest.failf "parse_axis %S: %s" spec msg
  in
  Alcotest.(check (pair string (list int))) "range"
    ("period", [ 10; 20; 30; 40 ])
    (ok "period=10..40/10");
  Alcotest.(check (pair string (list int))) "range step 1"
    ("b", [ 2; 3; 4 ]) (ok "b=2..4");
  Alcotest.(check (pair string (list int))) "list"
    ("poll", [ 5; 80; 7 ]) (ok "poll=5,80,7");
  Alcotest.(check (pair string (list int))) "negative lo"
    ("d", [ -2; 0; 2 ]) (ok "d=-2..2/2");
  List.iter
    (fun spec ->
      match Scheme.Grid.parse_axis spec with
      | Ok _ -> Alcotest.failf "parse_axis %S should fail" spec
      | Error _ -> ())
    [ "noequals"; "=1,2"; "x="; "x=1.."; "x=5..1"; "x=1..9/0"; "x=a,b" ]

let test_grid_make () =
  let g = grid_of [ ("a", [ 1; 2; 3 ]); ("b", [ 10; 20 ]) ] in
  Alcotest.(check int) "cardinality" 6 (Scheme.Grid.cardinality g);
  (match Scheme.Grid.make [ ("a", [ 1 ]); ("a", [ 2 ]) ] with
   | Ok _ -> Alcotest.fail "duplicate axis accepted"
   | Error _ -> ());
  (match Scheme.Grid.make [ ("a", []) ] with
   | Ok _ -> Alcotest.fail "empty axis accepted"
   | Error _ -> ())

let test_grid_decode () =
  let g = grid_of [ ("a", [ 1; 2; 3 ]); ("b", [ 10; 20 ]) ] in
  (* first axis fastest *)
  Alcotest.(check (list (pair string int))) "point 0"
    [ ("a", 1); ("b", 10) ] (Scheme.Grid.point g 0);
  Alcotest.(check (list (pair string int))) "point 1"
    [ ("a", 2); ("b", 10) ] (Scheme.Grid.point g 1);
  Alcotest.(check (list (pair string int))) "point 5"
    [ ("a", 3); ("b", 20) ] (Scheme.Grid.point g 5);
  (* every index decodes to a distinct assignment *)
  let seen = Hashtbl.create 16 in
  for i = 0 to Scheme.Grid.cardinality g - 1 do
    let asg = Scheme.Grid.point g i in
    if Hashtbl.mem seen asg then Alcotest.failf "duplicate assignment %d" i;
    Hashtbl.add seen asg ()
  done;
  (try
     ignore (Scheme.Grid.point g 6);
     Alcotest.fail "out-of-range decode accepted"
   with Invalid_argument _ -> ())

(* --- to_key and dedup ---------------------------------------------------- *)

let spec_at asg = Gpca.Sweep_space.spec_of_assignment ~base:small ~req:60 asg

let test_key_collapses_dead_axes () =
  (* with an interrupt-driven input the poll interval is outside the
     cone of influence: the keys must collide so the engine explores once *)
  let a = spec_at [ ("mech", 0); ("poll", 5) ] in
  let b = spec_at [ ("mech", 0); ("poll", 80) ] in
  Alcotest.(check string) "poll collapses under interrupt"
    a.Analysis.Sweep.sp_key b.Analysis.Sweep.sp_key;
  let c = spec_at [ ("mech", 1); ("poll", 5) ] in
  let d = spec_at [ ("mech", 1); ("poll", 80) ] in
  Alcotest.(check bool) "poll matters when polling" false
    (c.Analysis.Sweep.sp_key = d.Analysis.Sweep.sp_key)

let test_key_separates () =
  let pairs =
    [ ([ ("buffer", 1) ], [ ("buffer", 2) ]);
      ([ ("period", 20) ], [ ("period", 40) ]);
      ([ ("policy", 0) ], [ ("policy", 1) ]);
      ([ ("signal", 0) ], [ ("signal", 1) ]);
      ([ ("in_dmax", 5) ], [ ("in_dmax", 9) ]) ]
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "keys differ (%s)"
           (String.concat "," (List.map fst a)))
        false
        ((spec_at a).Analysis.Sweep.sp_key = (spec_at b).Analysis.Sweep.sp_key))
    pairs

(* --- Pareto -------------------------------------------------------------- *)

let test_dominates () =
  let d = Analysis.Sweep.dominates in
  Alcotest.(check bool) "strictly less" true (d [| 1; 2 |] [| 2; 2 |]);
  Alcotest.(check bool) "equal" false (d [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "incomparable" false (d [| 1; 3 |] [| 2; 2 |]);
  Alcotest.(check bool) "componentwise" true (d [| 1; 1 |] [| 2; 3 |])

(* --- the race: prefilter vs explorer-everywhere -------------------------- *)

(* a grid small enough to explore exhaustively in the test budget but
   wide enough to hit all decision paths: analytic fail (poll=80 makes
   the lower bound exceed req on polling points), undecided band, the
   invalid pulse x polling corner, and interrupt points collapsing the
   poll axis *)
let race_axes =
  [ ("period", [ 20; 40 ]);
    ("poll", [ 5; 80 ]);
    ("mech", [ 0; 1 ]);
    ("signal", [ 0; 1 ]);
    ("buffer", [ 1; 2 ]) ]

(* [wrap] post-processes every point's spec before the engine sees it *)
let run_grid ?(wrap = Fun.id) ~prefilter ~audit () =
  let grid = grid_of race_axes in
  let points = Scheme.Grid.cardinality grid in
  let vs = Array.make points Analysis.Sweep.Unknown in
  let cfg =
    { Analysis.Sweep.default_config with
      Analysis.Sweep.sw_prefilter = prefilter;
      sw_limit = Some 300_000;
      sw_audit = audit;
      sw_emit =
        Some
          (fun pr ->
            vs.(pr.Analysis.Sweep.pr_index) <- pr.Analysis.Sweep.pr_verdict) }
  in
  let o =
    Analysis.Sweep.run cfg ~points
      ~build:(fun i -> wrap (Gpca.Sweep_space.build ~base:small ~req:150 grid i))
  in
  (vs, o)

let test_race_verdicts_agree () =
  let pre_vs, pre = run_grid ~prefilter:true ~audit:1 () in
  let base_vs, baseline = run_grid ~prefilter:false ~audit:0 () in
  Alcotest.(check (array (of_pp Fmt.(of_to_string Analysis.Sweep.verdict_name))))
    "identical verdicts" base_vs pre_vs;
  Alcotest.(check (list (pair int string))) "no audit mismatches" []
    pre.Analysis.Sweep.o_audit_mismatches;
  Alcotest.(check bool) "audited everything analytic" true
    (pre.Analysis.Sweep.o_audited
     >= pre.Analysis.Sweep.o_analytic_pass
        + pre.Analysis.Sweep.o_analytic_fail);
  Alcotest.(check bool) "prefilter actually skipped" true
    (pre.Analysis.Sweep.o_skip_rate > 0.);
  Alcotest.(check int) "baseline skips only invalids"
    baseline.Analysis.Sweep.o_invalid
    (baseline.Analysis.Sweep.o_points - baseline.Analysis.Sweep.o_explored);
  (* counters tile the grid *)
  Alcotest.(check int) "counts tile"
    pre.Analysis.Sweep.o_points
    (pre.Analysis.Sweep.o_pass + pre.Analysis.Sweep.o_fail
     + pre.Analysis.Sweep.o_unknown + pre.Analysis.Sweep.o_invalid);
  (* interrupt points collapse the poll axis: the explorer ran on
     strictly fewer keys than undecided points *)
  Alcotest.(check bool) "memo dedup happened" true
    (pre.Analysis.Sweep.o_memo_hits > 0
     || baseline.Analysis.Sweep.o_memo_hits > 0)

(* The audit has teeth: a bound that claims every valid point meets the
   requirement (ub 0, loss-free) turns each one into an analytic Pass,
   and an --audit 1 run must then flag exactly the points the
   explorer-everywhere baseline fails — none if auditing were skipped. *)
let test_audit_catches_unsound_bound () =
  let base_vs, _ = run_grid ~prefilter:false ~audit:0 () in
  let lying sp = { sp with Analysis.Sweep.sp_ub = 0; sp_sound = true } in
  let _, lied = run_grid ~wrap:lying ~prefilter:true ~audit:1 () in
  let fails = ref [] in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "baseline point %d decided" i)
        false
        (v = Analysis.Sweep.Unknown);
      if v = Analysis.Sweep.Fail then fails := i :: !fails)
    base_vs;
  Alcotest.(check bool) "baseline has failing points" true (!fails <> []);
  Alcotest.(check (list int)) "mismatches are the baseline's fails"
    (List.rev !fails)
    (List.map fst lied.Analysis.Sweep.o_audit_mismatches)

(* Points are classified 4096 at a time.  The race grid's points
   repeated past that boundary answer exactly as the grid itself does:
   the key memo and the audit counter carry across batches, so no key
   is explored twice and every emitted point comes in index order. *)
let test_batch_boundary () =
  let grid = grid_of race_axes in
  let n = Scheme.Grid.cardinality grid in
  let specs = Array.init n (Gpca.Sweep_space.build ~base:small ~req:150 grid) in
  let one_vs, one = run_grid ~prefilter:true ~audit:1 () in
  let points = 4096 + (2 * n) + 5 in
  let emitted = ref [] in
  let cfg =
    { Analysis.Sweep.default_config with
      Analysis.Sweep.sw_limit = Some 300_000;
      sw_audit = 1;
      sw_emit =
        Some
          (fun pr ->
            emitted :=
              (pr.Analysis.Sweep.pr_index, pr.Analysis.Sweep.pr_verdict)
              :: !emitted) }
  in
  let o = Analysis.Sweep.run cfg ~points ~build:(fun i -> specs.(i mod n)) in
  Alcotest.(check (list int)) "every point once, in index order"
    (List.init points Fun.id)
    (List.rev_map fst !emitted);
  List.iter
    (fun (i, v) ->
      if v <> one_vs.(i mod n) then
        Alcotest.failf "point %d: %s, its grid point %d: %s" i
          (Analysis.Sweep.verdict_name v) (i mod n)
          (Analysis.Sweep.verdict_name one_vs.(i mod n)))
    !emitted;
  Alcotest.(check int) "no key explored twice" one.Analysis.Sweep.o_mc_runs
    o.Analysis.Sweep.o_mc_runs;
  Alcotest.(check (list (pair int string))) "no audit mismatches" []
    o.Analysis.Sweep.o_audit_mismatches

let test_pareto_only_pass () =
  let _, pre = run_grid ~prefilter:true ~audit:0 () in
  List.iter
    (fun (i, _) ->
      let grid = grid_of race_axes in
      let s =
        Gpca.Sweep_space.build ~base:small ~req:150 grid i
      in
      Alcotest.(check bool)
        (Printf.sprintf "pareto point %d is valid" i)
        true
        (s.Analysis.Sweep.sp_invalid = None))
    pre.Analysis.Sweep.o_pareto;
  (* no frontier member dominates another *)
  let costs = List.map snd pre.Analysis.Sweep.o_pareto in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            Alcotest.(check bool) "frontier is an antichain" false
              (Analysis.Sweep.dominates a b))
        costs)
    costs

(* [f dir] on a fresh temporary store directory, removed afterwards *)
let with_store name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d" name (Unix.getpid ()))
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

(* The persistent store extends the sweep's dedup across runs: a second
   sweep of the same grid over the same store is answered by store hits
   alone, point for point identical to the first. *)
let test_cached_rerun () =
  with_store "psv_sweep_cache" (fun dir ->
      let grid = grid_of race_axes in
      let sweep () =
        let cache =
          match Store.Disk.open_ dir with
          | Ok disk -> Analysis.Qcache.make disk
          | Error msg -> Alcotest.failf "open store: %s" msg
        in
        let points = ref [] in
        let cfg =
          { Analysis.Sweep.default_config with
            Analysis.Sweep.sw_limit = Some 300_000;
            sw_cache = Some cache;
            sw_emit = Some (fun pr -> points := pr :: !points) }
        in
        let o =
          Analysis.Sweep.run cfg ~points:(Scheme.Grid.cardinality grid)
            ~build:(Gpca.Sweep_space.build ~base:small ~req:150 grid)
        in
        (List.rev !points, o, cache)
      in
      let cold, cold_o, cold_cache = sweep () in
      let warm, warm_o, warm_cache = sweep () in
      Alcotest.(check bool) "the cold run explored" true
        (cold_o.Analysis.Sweep.o_mc_runs > 0);
      Alcotest.(check int) "cold: every run a miss"
        cold_o.Analysis.Sweep.o_mc_runs (Analysis.Qcache.misses cold_cache);
      Alcotest.(check (pair int int)) "warm: every run a store hit"
        (warm_o.Analysis.Sweep.o_mc_runs, 0)
        (Analysis.Qcache.hits warm_cache, Analysis.Qcache.misses warm_cache);
      Alcotest.(check bool) "identical point results" true (cold = warm))

(* --- stopped explorations: every point as the full search reports it --- *)

(* A grid whose explored points include Pass, a finite sup over the
   requirement, and [Sup_exceeds]: the sweep stops an exploration once
   its running sup exceeds the ceiling, and nothing it emits may tell. *)
let mixed_axes =
  [ ("period", [ 20; 80 ]);
    ("poll", [ 5; 120 ]);
    ("mech", [ 0; 1 ]);
    ("signal", [ 0; 1 ]);
    ("out_dmax", [ 5; 10 ]) ]

let mixed_req = 150

(* Every point as a sweep must emit it, from full [Sup_delay] searches:
   the first point of each explored key is [By_explorer], later ones
   [By_memo] (one batch, no audit). *)
let reference ~prefilter grid =
  let full = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  List.init (Scheme.Grid.cardinality grid) (fun i ->
      let sp = Gpca.Sweep_space.build ~base:small ~req:mixed_req grid i in
      let open Analysis.Sweep in
      let point pr_verdict pr_decision pr_sup =
        { pr_index = i; pr_verdict; pr_decision; pr_ub = sp.sp_ub;
          pr_lb = sp.sp_lb; pr_sup; pr_cost = sp.sp_cost }
      in
      match sp.sp_invalid with
      | Some _ -> point Invalid By_invalid None
      | None when prefilter && sp.sp_sound && sp.sp_ub <= sp.sp_req ->
        point Pass By_upper_bound None
      | None when prefilter && sp.sp_lb > sp.sp_req ->
        point Fail By_lower_bound None
      | None ->
        let outcome =
          match Hashtbl.find_opt full sp.sp_key with
          | Some o -> o
          | None ->
            let o =
              (Mc.Query.eval ~limit:300_000 (sp.sp_net ())
                 (Mc.Query.Sup_delay
                    { trigger = sp.sp_trigger; response = sp.sp_response;
                      ceiling = sp.sp_req }))
                .Mc.Query.res_outcome
            in
            Hashtbl.replace full sp.sp_key o;
            o
        in
        let sup =
          match outcome with
          | Mc.Query.Sup s -> s
          | o -> Alcotest.failf "point %d: full search %a" i
                   Mc.Query.pp_outcome o
        in
        let verdict =
          match Mc.Query.bounded_of_sup outcome ~bound:sp.sp_req with
          | Mc.Query.Holds -> Pass
          | _ -> Fail
        in
        let decision =
          if Hashtbl.mem seen sp.sp_key then By_memo
          else (Hashtbl.replace seen sp.sp_key (); By_explorer)
        in
        point verdict decision (Some sup))

let sweep_points ?cache ~prefilter grid =
  let points = ref [] in
  let cfg =
    { Analysis.Sweep.default_config with
      Analysis.Sweep.sw_prefilter = prefilter;
      sw_limit = Some 300_000;
      sw_cache = cache;
      sw_emit = Some (fun pr -> points := pr :: !points) }
  in
  ignore
    (Analysis.Sweep.run cfg ~points:(Scheme.Grid.cardinality grid)
       ~build:(Gpca.Sweep_space.build ~base:small ~req:mixed_req grid));
  List.rev !points

let pp_point ppf pr =
  let open Analysis.Sweep in
  Fmt.pf ppf "#%d %s/%s ub %d lb %d sup %a" pr.pr_index
    (verdict_name pr.pr_verdict) (decision_name pr.pr_decision) pr.pr_ub
    pr.pr_lb
    Fmt.(option ~none:(any "-") Mc.Explorer.pp_sup_result)
    pr.pr_sup

let point_t = Alcotest.of_pp pp_point

let test_stopped_points_identical () =
  let grid = grid_of mixed_axes in
  let full_ref = reference ~prefilter:false grid in
  (* the grid has all three kinds of explored answer *)
  let kinds =
    List.sort_uniq compare
      (List.filter_map
         (fun pr ->
           match pr.Analysis.Sweep.pr_verdict, pr.Analysis.Sweep.pr_sup with
           | Analysis.Sweep.Pass, Some _ -> Some "pass"
           | Analysis.Sweep.Fail, Some (Mc.Explorer.Sup _) -> Some "finite fail"
           | Analysis.Sweep.Fail, Some (Mc.Explorer.Sup_exceeds _) ->
             Some "exceeds"
           | _ -> None)
         full_ref)
  in
  Alcotest.(check (list string)) "explored kinds"
    [ "exceeds"; "finite fail"; "pass" ] kinds;
  List.iter
    (fun prefilter ->
      Alcotest.(check (list point_t))
        (Printf.sprintf "points, prefilter %b" prefilter)
        (if prefilter then reference ~prefilter grid else full_ref)
        (sweep_points ~prefilter grid))
    [ true; false ];
  with_store "psv_sweep_stop" (fun dir ->
      let open_cache () =
        match Store.Disk.open_ dir with
        | Ok disk -> Analysis.Qcache.make disk
        | Error msg -> Alcotest.failf "open store: %s" msg
      in
      let cold_cache = open_cache () in
      let cold = sweep_points ~cache:cold_cache ~prefilter:false grid in
      let warm_cache = open_cache () in
      let warm = sweep_points ~cache:warm_cache ~prefilter:false grid in
      Alcotest.(check (list point_t)) "cold cached sweep" full_ref cold;
      Alcotest.(check (list point_t)) "warm cached sweep" cold warm;
      Alcotest.(check int) "warm: no misses" 0
        (Analysis.Qcache.misses warm_cache);
      (* each entry the stopped searches wrote answers as a full one *)
      let checked = Hashtbl.create 16 in
      for i = 0 to Scheme.Grid.cardinality grid - 1 do
        let sp = Gpca.Sweep_space.build ~base:small ~req:mixed_req grid i in
        if sp.Analysis.Sweep.sp_invalid = None
           && not (Hashtbl.mem checked sp.Analysis.Sweep.sp_key)
        then begin
          Hashtbl.replace checked sp.Analysis.Sweep.sp_key ();
          let net = sp.Analysis.Sweep.sp_net () in
          let q =
            Mc.Query.Sup_delay
              { trigger = sp.Analysis.Sweep.sp_trigger;
                response = sp.Analysis.Sweep.sp_response;
                ceiling = sp.Analysis.Sweep.sp_req }
          in
          let fresh = (Mc.Query.eval ~limit:300_000 net q).Mc.Query.res_outcome in
          let hit =
            Analysis.Qcache.eval warm_cache ~limit:300_000 net q
          in
          Alcotest.(check (of_pp Mc.Query.pp_outcome))
            (Printf.sprintf "point %d: store hit = full search" i)
            fresh hit.Mc.Query.res_outcome
        end
      done;
      Alcotest.(check int) "every hit answered from the store" 0
        (Analysis.Qcache.misses warm_cache))

(* --- seeded property: lb <= verified sup <= ub --------------------------- *)

(* random Small-base points kept cheap: short periods and polls so each
   exploration finishes in milliseconds *)
let gen_point =
  QCheck.Gen.(
    let* period = oneofl [ 20; 30; 40 ] in
    let* poll = oneofl [ 5; 10; 20 ] in
    let* mech = oneofl [ 0; 1 ] in
    let* signal = oneofl [ 0; 1 ] in
    let* buffer = oneofl [ 1; 2 ] in
    let* policy = oneofl [ 0; 1 ] in
    let* in_dmax = oneofl [ 2; 5 ] in
    let* out_dmax = oneofl [ 5; 10 ] in
    return
      [ ("period", period); ("poll", poll); ("mech", mech);
        ("signal", signal); ("buffer", buffer); ("policy", policy);
        ("in_dmax", in_dmax); ("out_dmax", out_dmax) ])

let arb_point =
  QCheck.make
    ~print:(fun asg ->
      String.concat " "
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) asg))
    gen_point

let prop_bounds_bracket_sup =
  QCheck.Test.make ~name:"analytic bounds bracket the verified sup" ~count:12
    arb_point (fun asg ->
      let s = Gpca.Sweep_space.spec_of_assignment ~base:small ~req:60 asg in
      match s.Analysis.Sweep.sp_invalid with
      | Some _ -> QCheck.assume_fail ()
      | None ->
        let r =
          Mc.Query.max_delay
            (s.Analysis.Sweep.sp_net ())
            ~trigger:s.Analysis.Sweep.sp_trigger
            ~response:s.Analysis.Sweep.sp_response
            ~ceiling:(s.Analysis.Sweep.sp_ub + 1)
        in
        (match r.Mc.Explorer.so_sup with
         | Mc.Explorer.Sup (v, _) ->
           (* the lower bound never overshoots, regardless of loss *)
           if v < s.Analysis.Sweep.sp_lb then
             QCheck.Test.fail_reportf "sup %d under analytic lb %d" v
               s.Analysis.Sweep.sp_lb
           (* the upper bound holds whenever the point is loss-free *)
           else if s.Analysis.Sweep.sp_sound && v > s.Analysis.Sweep.sp_ub
           then
             QCheck.Test.fail_reportf "sup %d over analytic ub %d" v
               s.Analysis.Sweep.sp_ub
           else true
         | Mc.Explorer.Sup_exceeds c ->
           if s.Analysis.Sweep.sp_sound then
             QCheck.Test.fail_reportf "sup exceeds %d despite ub %d" c
               s.Analysis.Sweep.sp_ub
           else true
         | Mc.Explorer.Sup_unreached -> true))

(* A time budget bounds each exploration, not the sweep: with a root
   token whose 1 s budget is already spent, every point still explores
   on its own sibling's fresh clock. *)
let test_budget_per_point () =
  let root =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_time_s = Some 1.0 }
      ()
  in
  Unix.sleepf 1.05;
  let grid = grid_of [ ("period", [ 20; 40 ]); ("mech", [ 0; 1 ]) ] in
  let cfg =
    { Analysis.Sweep.default_config with
      Analysis.Sweep.sw_prefilter = false;
      sw_limit = Some 300_000;
      sw_ctl = Some root }
  in
  let o =
    Analysis.Sweep.run cfg ~points:(Scheme.Grid.cardinality grid)
      ~build:(Gpca.Sweep_space.build ~base:small ~req:150 grid)
  in
  Alcotest.(check bool) "points were explored" true
    (o.Analysis.Sweep.o_mc_runs > 0);
  Alcotest.(check int) "no point interrupted" 0 o.Analysis.Sweep.o_interrupted

let suite =
  [ Alcotest.test_case "grid: parse_axis" `Quick test_parse_axis;
    Alcotest.test_case "grid: make" `Quick test_grid_make;
    Alcotest.test_case "grid: decode" `Quick test_grid_decode;
    Alcotest.test_case "key: dead axes collapse" `Quick
      test_key_collapses_dead_axes;
    Alcotest.test_case "key: live axes separate" `Quick test_key_separates;
    Alcotest.test_case "pareto: dominates" `Quick test_dominates;
    Alcotest.test_case "race: prefilter = explorer" `Slow
      test_race_verdicts_agree;
    Alcotest.test_case "race: audit catches an unsound bound" `Slow
      test_audit_catches_unsound_bound;
    Alcotest.test_case "race: batch boundary changes nothing" `Slow
      test_batch_boundary;
    Alcotest.test_case "pareto: frontier invariants" `Slow
      test_pareto_only_pass;
    Alcotest.test_case "budget applies per point" `Quick
      test_budget_per_point;
    Alcotest.test_case "cache: rerun is all store hits" `Quick
      test_cached_rerun;
    Alcotest.test_case "stopped explorations emit full-search points" `Slow
      test_stopped_points_identical;
    QCheck_alcotest.to_alcotest prop_bounds_bracket_sup ]
