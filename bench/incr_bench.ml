(* Incremental re-verification benchmark: randomized edit-one-constant
   sequences over the Table-1 GPCA suite, each edit re-verified through
   the {!Incr.Session} ladder and checked against a from-scratch
   sequential run.  Writes BENCH_incr.json (cold/warm wall times, the
   per-edit answer times and the ladder-rung breakdown) and exits 1 on
   any incremental-vs-scratch verdict mismatch.

   Usage: incr_bench [--edits N] [--seed N] [--max-states N] [-o FILE]

   Edit-one-constant sequences can produce models whose zone graph
   explodes — e.g. nudging one side of a periodic [p == K] guard /
   [p <= K] invariant pair desynchronizes the task periods and
   fragments every zone.  Each edit is first probed by a from-scratch
   run under an exact visited-state budget (--max-states, default
   200000); an edit that blows the budget is recorded as skipped and
   reverted, which keeps the probe deterministic (the visited count at
   jobs 1 does not depend on timing) and the bench finite.

   Answer times are [Incr.Session.so_answer_ms] — the answering
   exploration alone, without session persistence — except on the store
   and cone rungs, which do not explore and report the whole call. *)

let params = Gpca.Params.default

let specs () =
  let gpca_psm =
    lazy (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net
  in
  let gpca_ceiling =
    2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc
  in
  let spec name net ~trigger ~response ~ceiling =
    { Analysis.Queries.qs_name = name; qs_net = net; qs_trigger = trigger;
      qs_response = response; qs_ceiling = ceiling }
  in
  [ spec "gpca-pim-mc"
      (fun () -> Gpca.Model.network ~variant:Gpca.Model.Bolus_only params)
      ~trigger:Gpca.Model.bolus_req ~response:Gpca.Model.start_infusion
      ~ceiling:1000;
    spec "gpca-psm-input"
      (fun () -> Lazy.force gpca_psm)
      ~trigger:Gpca.Model.bolus_req
      ~response:(Transform.Names.input_chan Gpca.Model.bolus_req)
      ~ceiling:gpca_ceiling;
    spec "gpca-psm-output"
      (fun () -> Lazy.force gpca_psm)
      ~trigger:(Transform.Names.output_chan Gpca.Model.start_infusion)
      ~response:Gpca.Model.start_infusion ~ceiling:gpca_ceiling;
    spec "gpca-psm-mc"
      (fun () -> Lazy.force gpca_psm)
      ~trigger:Gpca.Model.bolus_req ~response:Gpca.Model.start_infusion
      ~ceiling:gpca_ceiling ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

let outcome_json (r : Mc.Query.result) =
  Store.Json.to_string
    (Store.Entry.outcome_to_json
       (Analysis.Qcache.outcome_to_entry r.Mc.Query.res_outcome))

(* a throwaway store so the warm rung is the real disk path *)
let with_store_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_incr_bench_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun x -> rm (Filename.concat path x)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm dir with _ -> ()) (fun () -> f dir)

type edit_row = {
  er_desc : string;
  er_rung : string;
  er_ms : float;  (* answering exploration only (so_answer_ms) *)
  er_total_ms : float;  (* whole Session.run call, incl. persistence *)
  er_match : bool;
}

type spec_row = {
  sr_name : string;
  sr_cold_ms : float;  (* cold answering exploration (so_answer_ms) *)
  sr_cold_total_ms : float;  (* cold Session.run incl. persistence *)
  sr_warm_ms : float;
  sr_edits : edit_row list;
  sr_rungs : int * int * int;  (* store, cone, full *)
  sr_skipped : int;  (* edits whose scratch probe blew the state budget *)
}

(* budgeted from-scratch run: [Ok result] when the model is tractable
   within [max_states], [Error visited] when the budget interrupted it *)
let scratch_probe ~max_states net q =
  let ctl =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with b_states = Some max_states } ()
  in
  let r = Mc.Query.eval ~jobs:1 ~ctl net q in
  match r.Mc.Query.res_outcome with
  | Mc.Query.Unknown (Mc.Runctl.State_budget _, _) ->
    Error r.Mc.Query.res_stats.Mc.Explorer.visited
  | _ -> Ok r

let run_spec ~seed ~edits ~index ~max_states dir
    (s : Analysis.Queries.query_spec) =
  let disk =
    match Store.Disk.open_ (Filename.concat dir s.Analysis.Queries.qs_name) with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let cache = Analysis.Qcache.make disk in
  let sess =
    Incr.Session.make ~cache ~tag:("bench:" ^ s.Analysis.Queries.qs_name) ()
  in
  let q =
    Mc.Query.Sup_delay
      { trigger = s.Analysis.Queries.qs_trigger;
        response = s.Analysis.Queries.qs_response;
        ceiling = s.Analysis.Queries.qs_ceiling }
  in
  let net0 = s.Analysis.Queries.qs_net () in
  let cold_o, cold_total_ms = time (fun () -> Incr.Session.run sess net0 q) in
  let cold_ms = cold_o.Incr.Session.so_answer_ms in
  let _, warm_ms = time (fun () -> Incr.Session.run sess net0 q) in
  let rng = Random.State.make [| seed; index |] in
  let store_n = ref 0 and cone_n = ref 0 and full_n = ref 0
  and skipped_n = ref 0 in
  let net = ref net0 in
  let rows = ref [] in
  for _ = 1 to edits do
    (match Incr.Edit.tweak_constant rng !net with
     | None -> ()
     | Some ed ->
       match scratch_probe ~max_states ed.Incr.Edit.ed_net q with
       | Error visited ->
         (* intractable edit: record it, keep the previous net *)
         incr skipped_n;
         rows :=
           { er_desc =
               Printf.sprintf "%s [>%d states, skipped]"
                 ed.Incr.Edit.ed_desc visited;
             er_rung = "skipped";
             er_ms = 0.;
             er_total_ms = 0.;
             er_match = true }
           :: !rows
       | Ok scratch ->
         net := ed.Incr.Edit.ed_net;
         let o, total_ms = time (fun () -> Incr.Session.run sess !net q) in
         let rung = o.Incr.Session.so_rung in
         (* store/cone rungs answer without exploring: so_answer_ms is 0
            there, so the whole call is the honest answer latency *)
         let ms =
           match rung with
           | Incr.Session.Store_hit | Incr.Session.Cone_hit -> total_ms
           | Incr.Session.Delta | Incr.Session.Full ->
             o.Incr.Session.so_answer_ms
         in
         (match rung with
          | Incr.Session.Store_hit -> incr store_n
          | Incr.Session.Cone_hit -> incr cone_n
          | Incr.Session.Delta | Incr.Session.Full -> incr full_n);
         let ok =
           String.equal (outcome_json scratch)
             (outcome_json o.Incr.Session.so_result)
         in
         if not ok then
           Printf.eprintf
             "MISMATCH %s after %S (%s rung):\n  incremental %s\n  scratch     %s\n"
             s.Analysis.Queries.qs_name ed.Incr.Edit.ed_desc
             (Incr.Session.rung_name rung)
             (outcome_json o.Incr.Session.so_result)
             (outcome_json scratch);
         rows :=
           { er_desc = ed.Incr.Edit.ed_desc;
             er_rung = Incr.Session.rung_name rung;
             er_ms = ms;
             er_total_ms = total_ms;
             er_match = ok }
           :: !rows)
  done;
  { sr_name = s.Analysis.Queries.qs_name;
    sr_cold_ms = cold_ms;
    sr_cold_total_ms = cold_total_ms;
    sr_warm_ms = warm_ms;
    sr_edits = List.rev !rows;
    sr_rungs = (!store_n, !cone_n, !full_n);
    sr_skipped = !skipped_n }

let row_json r =
  let store_n, cone_n, full_n = r.sr_rungs in
  let open Store.Json in
  Obj
    [ ("name", String r.sr_name);
      ("cold_ms", Float r.sr_cold_ms);
      ("cold_total_ms", Float r.sr_cold_total_ms);
      ("warm_ms", Float r.sr_warm_ms);
      ( "rungs",
        Obj
          [ ("store", Int store_n); ("cone", Int cone_n); ("full", Int full_n);
            ("skipped", Int r.sr_skipped) ] );
      ( "edits",
        List
          (List.map
             (fun e ->
               Obj
                 [ ("edit", String e.er_desc); ("rung", String e.er_rung);
                   ("ms", Float e.er_ms);
                   ("total_ms", Float e.er_total_ms);
                   ("matches_scratch", Bool e.er_match) ])
             r.sr_edits) ) ]

let () =
  let edits = ref 12 and seed = ref 7 and max_states = ref 200_000
  and out = ref "BENCH_incr.json" in
  let rec parse = function
    | [] -> ()
    | "--edits" :: v :: rest -> edits := int_of_string v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--max-states" :: v :: rest -> max_states := int_of_string v; parse rest
    | ("-o" | "--output") :: v :: rest -> out := v; parse rest
    | arg :: _ -> Printf.eprintf "incr_bench: unknown argument %s\n" arg; exit 3
  in
  parse (List.tl (Array.to_list Sys.argv));
  with_store_dir (fun dir ->
      let rows =
        List.mapi
          (fun index s ->
            run_spec ~seed:!seed ~edits:!edits ~index
              ~max_states:!max_states dir s)
          (specs ())
      in
      let mismatches =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun e -> if e.er_match then None else Some (r.sr_name, e.er_desc))
              r.sr_edits)
          rows
      in
      let doc =
        Store.Json.Obj
          [ ("edits_per_spec", Store.Json.Int !edits);
            ("seed", Store.Json.Int !seed);
            ("max_states", Store.Json.Int !max_states);
            ("mismatches", Store.Json.Int (List.length mismatches));
            ("specs", Store.Json.List (List.map row_json rows)) ]
      in
      let oc = open_out !out in
      output_string oc (Store.Json.to_string doc);
      output_string oc "\n";
      close_out oc;
      List.iter
        (fun r ->
          let store_n, cone_n, full_n = r.sr_rungs in
          Printf.printf
            "%-18s cold %7.1f ms (%7.1f with persist)  warm %5.2f ms  \
             rungs: %d store, %d cone, %d full, %d skipped\n"
            r.sr_name r.sr_cold_ms r.sr_cold_total_ms r.sr_warm_ms store_n
            cone_n full_n r.sr_skipped)
        rows;
      Printf.printf "wrote %s\n" !out;
      if mismatches <> [] then begin
        Printf.eprintf "incr_bench: %d verdict mismatch%s\n"
          (List.length mismatches)
          (if List.length mismatches = 1 then "" else "es");
        exit 1
      end)
