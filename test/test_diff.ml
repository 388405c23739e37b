(* Tests of the differential-fuzzing subsystem: generator determinism
   and well-formedness, ground truth vs the explorer, a clean
   full-oracle sweep, the injected-mutation smoke detector, shrinker
   determinism (across runs and across --jobs), and the corpus-entry
   fixture on a canned discrepancy. *)

module G = Diff.Gen
module O = Diff.Oracle
module S = Diff.Shrink

let print net = Xta.Print.to_string net

let sup_of net q =
  let r = Mc.Query.eval net q in
  match r.Mc.Query.res_outcome with
  | Mc.Query.Sup (Mc.Explorer.Sup (v, _)) -> v
  | o -> Alcotest.failf "expected a sup, got %a" Mc.Query.pp_outcome o

(* --- generator ------------------------------------------------------- *)

let test_shape_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (G.shape_name s))
        true
        (G.shape_of_name (G.shape_name s) = Some s))
    G.all_shapes;
  Alcotest.(check bool) "alias fanin" true (G.shape_of_name "fanin" = Some G.Fan_in);
  Alcotest.(check bool) "alias psm" true
    (G.shape_of_name "psm" = Some G.Psm_scheme);
  Alcotest.(check bool) "unknown" true (G.shape_of_name "nope" = None)

let test_gen_deterministic () =
  List.iter
    (fun shape ->
      let a = G.instance ~seed:42 ~index:17 shape in
      let b = G.instance ~seed:42 ~index:17 shape in
      Alcotest.(check string)
        (Printf.sprintf "%s byte-identical" (G.shape_name shape))
        (print a.G.net) (print b.G.net);
      Alcotest.(check string) "same id" a.G.id b.G.id;
      let c = G.instance ~seed:43 ~index:17 shape in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed-sensitive" (G.shape_name shape))
        true
        (print a.G.net <> print c.G.net
        || a.G.truth <> c.G.truth
        || a.G.floor <> c.G.floor))
    G.all_shapes

let test_gen_well_formed () =
  List.iter
    (fun shape ->
      for index = 0 to 9 do
        let i = G.instance ~seed:11 ~index shape in
        Alcotest.(check (list string))
          (Printf.sprintf "%s validates" i.G.id)
          []
          (Ta.Model.validate i.G.net);
        Alcotest.(check bool) "floor >= 1" true (i.G.floor >= 1);
        Alcotest.(check bool) "floor <= ub" true (i.G.floor <= G.ub i);
        Alcotest.(check bool) "ceiling above ub" true (i.G.ceiling > G.ub i);
        Alcotest.(check bool) "sim iff psm" true
          (Option.is_some i.G.sim = (shape = G.Psm_scheme))
      done)
    G.all_shapes

let test_truth_vs_explorer () =
  List.iter
    (fun shape ->
      for index = 0 to 14 do
        let i = G.instance ~seed:5 ~index shape in
        let sup = sup_of i.G.net (G.query i) in
        (match i.G.truth with
        | G.Exact v ->
            Alcotest.(check int)
              (Printf.sprintf "%s sup exact" i.G.id)
              v sup
        | G.Between (lb, ub) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s sup in [%d,%d], got %d" i.G.id lb ub sup)
              true
              (lb <= sup && sup <= ub));
        Alcotest.(check bool) "floor <= sup" true (i.G.floor <= sup)
      done)
    G.all_shapes

(* --- oracle ---------------------------------------------------------- *)

let test_oracle_clean_sweep () =
  let cfg = { O.default with O.scenarios = 2 } in
  List.iter
    (fun shape ->
      for index = 0 to 9 do
        let v = O.run cfg (G.instance ~seed:23 ~index shape) in
        Alcotest.(check int)
          (Printf.sprintf "%s clean" v.O.v_id)
          0
          (List.length v.O.v_discrepancies)
      done)
    G.all_shapes

let test_mutation_caught () =
  let cfg = { O.default with O.mutation = Some (O.Sup_skew 3) } in
  let i = G.instance ~seed:42 ~index:0 G.Chain in
  let v = O.run cfg i in
  Alcotest.(check bool) "at least one discrepancy" true
    (v.O.v_discrepancies <> []);
  Alcotest.(check bool) "an xta discrepancy among them" true
    (List.exists (fun d -> d.O.d_check = O.Xta) v.O.v_discrepancies)

(* The skew self-test at full strength, as [psv fuzz --inject-sup-skew 3
   --count 40] runs it: every instance has a sup, so every one is
   discrepant, and the re-verified round-trip names the skew. *)
let test_skew_run_all_discrepant () =
  let cfg =
    { O.default with O.scenarios = 0; mutation = Some (O.Sup_skew 3) }
  in
  let shapes = G.all_shapes in
  for index = 0 to 39 do
    let shape = List.nth shapes (index mod List.length shapes) in
    let v = O.run cfg (G.instance ~seed:42 ~index shape) in
    if v.O.v_sup = None then Alcotest.failf "%s: no sup" v.O.v_id;
    if not (List.exists (fun d -> d.O.d_check = O.Xta) v.O.v_discrepancies)
    then Alcotest.failf "%s: skew not caught as xta" v.O.v_id
  done

let caches = ref 0

(* fresh store directory, removed afterwards *)
let with_cache f =
  incr caches;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_diff_cache_%d_%d" (Unix.getpid ()) !caches)
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with _ -> ()) (fun () ->
      match Store.Disk.open_ dir with
      | Ok disk -> f (Analysis.Qcache.make ~warn:(fun _ -> ()) disk)
      | Error msg -> Alcotest.failf "open store: %s" msg)

(* A verdict as text *)
let show_verdict v =
  Printf.sprintf "%s sup=%s [%s]" v.O.v_id
    (match v.O.v_sup with Some s -> string_of_int s | None -> "-")
    (String.concat "; "
       (List.map
          (fun d -> O.check_name d.O.d_check ^ ": " ^ d.O.d_detail)
          v.O.v_discrepancies))

(* The instance's checks share [jobs] domains; what the oracle reports
   must not depend on how many. *)
let test_oracle_jobs_deterministic () =
  let verdicts ~jobs ~mutation ~cached =
    let go cache =
      List.concat_map
        (fun shape ->
          List.init 3 (fun index ->
              show_verdict
                (O.run
                   { O.default with O.jobs; scenarios = 2; mutation; cache }
                   (G.instance ~seed:31 ~index shape))))
        G.all_shapes
    in
    if cached then with_cache (fun c -> go (Some c)) else go None
  in
  List.iter
    (fun (mutation, cached) ->
      let at1 = verdicts ~jobs:1 ~mutation ~cached in
      if mutation <> None then
        Alcotest.(check bool) "skew shows" true
          (List.for_all (fun v -> not (String.ends_with ~suffix:"[]" v)) at1);
      List.iter
        (fun jobs ->
          Alcotest.(check (list string))
            (Printf.sprintf "jobs %d = jobs 1 (skew %b, cache %b)" jobs
               (mutation <> None) cached)
            at1
            (verdicts ~jobs ~mutation ~cached))
        [ 2; 4 ])
    [ (None, false); (Some (O.Sup_skew 3), false); (None, true);
      (Some (O.Sup_skew 3), true) ]

(* A network without its clock declarations makes every exploration
   raise: the batch must re-raise what a one-domain run raises, and
   leave the parked helpers fit for the next instance. *)
let test_oracle_batch_exception () =
  let i = G.instance ~seed:42 ~index:1 G.Fan_in in
  let net = { i.G.net with Ta.Model.net_clocks = [] } in
  let raised jobs =
    match O.core { O.default with O.jobs } ~net ~q:(G.query i) ~seed:3 with
    | _ -> Alcotest.fail "core should raise"
    | exception exn -> Printexc.to_string exn
  in
  let at1 = raised 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "jobs %d raises as jobs 1" jobs)
        at1 (raised jobs))
    [ 2; 4 ];
  let v = O.run O.default (G.instance ~seed:42 ~index:0 G.Chain) in
  Alcotest.(check (list string)) "next run clean" []
    (List.map (fun d -> d.O.d_detail) v.O.v_discrepancies);
  Alcotest.(check bool) "park within its cap" true
    (Mc.Park.parked () <= Mc.Park.cap)

let test_check_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "check round-trip %s" (O.check_name c))
        true
        (O.check_of_name (O.check_name c) = Some c))
    [ O.Truth; O.Analytic; O.Bounded; O.Xta; O.Store_trip;
      O.Ladder; O.Sim ]

(* --- shrinking ------------------------------------------------------- *)

(* The canned discrepancy: an injected sup skew on a fixed chain
   instance, which the oracle classifies as [Xta] — the one mutation
   class guaranteed construction-independent, so it survives network
   surgery and the shrinker can chew on it. *)
let canned () =
  let i = G.instance ~seed:42 ~index:2 G.Chain in
  let cfg = { O.default with O.mutation = Some (O.Sup_skew 5) } in
  (cfg, i)

let test_shrink_reproduces_and_reduces () =
  let cfg, i = canned () in
  let q = G.query i in
  let r = S.shrink cfg ~check:O.Xta ~seed:9 ~q i.G.net in
  Alcotest.(check bool) "accepted some reductions" true (r.S.sh_accepted > 0);
  Alcotest.(check bool) "tested at least as many" true
    (r.S.sh_tested >= r.S.sh_accepted);
  let l0, e0 = Ta.Model.size i.G.net in
  let l1, e1 = Ta.Model.size r.S.sh_net in
  Alcotest.(check bool) "not larger" true (l1 <= l0 && e1 <= e0);
  Alcotest.(check (list string)) "still validates" []
    (Ta.Model.validate r.S.sh_net);
  let _, _, ds = O.core cfg ~net:r.S.sh_net ~q ~seed:9 in
  Alcotest.(check bool) "still reproduces an xta discrepancy" true
    (List.exists (fun d -> d.O.d_check = O.Xta) ds)

let test_shrink_deterministic () =
  let cfg, i = canned () in
  let q = G.query i in
  let r1 = S.shrink cfg ~check:O.Xta ~seed:9 ~q i.G.net in
  let r2 = S.shrink cfg ~check:O.Xta ~seed:9 ~q i.G.net in
  Alcotest.(check string) "byte-identical across runs" r1.S.sh_xta r2.S.sh_xta;
  Alcotest.(check int) "same acceptance count" r1.S.sh_accepted r2.S.sh_accepted;
  let r4 =
    S.shrink { cfg with O.jobs = 4 } ~check:O.Xta ~seed:9 ~q i.G.net
  in
  Alcotest.(check string) "byte-identical across jobs" r1.S.sh_xta r4.S.sh_xta

let test_shrink_no_discrepancy_is_identity () =
  let i = G.instance ~seed:42 ~index:3 G.Chain in
  let q = G.query i in
  (* No mutation: nothing to reproduce, the input comes back unchanged. *)
  let r = S.shrink O.default ~check:O.Xta ~seed:9 ~q i.G.net in
  Alcotest.(check int) "no reductions" 0 r.S.sh_accepted;
  Alcotest.(check string) "unchanged" (print i.G.net) r.S.sh_xta

let test_corpus_entry () =
  let cfg, i = canned () in
  let q = G.query i in
  let r = S.shrink cfg ~check:O.Xta ~seed:9 ~q i.G.net in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_diff_corpus_%d" (Unix.getpid ()))
  in
  let meta =
    Store.Json.Obj
      [ ("id", Store.Json.String i.G.id);
        ("check", Store.Json.String (O.check_name O.Xta)) ]
  in
  let entry =
    S.write_entry ~dir ~id:i.G.id ~query_text:(Mc.Query.to_string q)
      ~meta_json:meta r
  in
  let read file =
    let ic = open_in_bin (Filename.concat entry file) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check string) "model.xta is the shrunk net" r.S.sh_xta
    (read "model.xta");
  Alcotest.(check bool) "query.q has the sup query" true
    (let q_text = read "query.q" in
     String.length q_text > 0
     && String.sub q_text 0 4 = "sup:");
  Alcotest.(check bool) "meta.json mentions the check" true
    (let m = read "meta.json" in
     let needle = "\"xta\"" in
     let n = String.length needle and len = String.length m in
     let rec find k =
       k + n <= len && (String.sub m k n = needle || find (k + 1))
     in
     find 0);
  (* The persisted model reparses to the same canonical text. *)
  (match Xta.Parse.network (read "model.xta") with
  | Ok net -> Alcotest.(check string) "reparses" r.S.sh_xta (print net)
  | Error e -> Alcotest.failf "corpus model does not reparse: %s" e);
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  rm dir

let suite =
  [ Alcotest.test_case "shape names" `Quick test_shape_names;
    Alcotest.test_case "generator deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "generator well-formed" `Quick test_gen_well_formed;
    Alcotest.test_case "truth vs explorer" `Quick test_truth_vs_explorer;
    Alcotest.test_case "oracle clean sweep" `Quick test_oracle_clean_sweep;
    Alcotest.test_case "mutation caught as xta" `Quick test_mutation_caught;
    Alcotest.test_case "skew run: 40 of 40 discrepant" `Quick
      test_skew_run_all_discrepant;
    Alcotest.test_case "oracle same at jobs 1, 2, 4" `Quick
      test_oracle_jobs_deterministic;
    Alcotest.test_case "batch exception as at jobs 1" `Quick
      test_oracle_batch_exception;
    Alcotest.test_case "check names" `Quick test_check_names;
    Alcotest.test_case "shrink reproduces + reduces" `Quick
      test_shrink_reproduces_and_reduces;
    Alcotest.test_case "shrink deterministic" `Quick test_shrink_deterministic;
    Alcotest.test_case "shrink identity w/o discrepancy" `Quick
      test_shrink_no_discrepancy_is_identity;
    Alcotest.test_case "corpus entry fixture" `Quick test_corpus_entry ]
