(* edit-loop: Incr.Session.run with a scratch store over eight seeded
   Incr.Edit.random_edit edits on each of gpca-psm-input and
   gpca-psm-output -- the only workload where the cone and delta rungs
   and session persistence answer.

   Each op is what one `psv check --delta` after a one-constant edit
   costs: a fresh session loads the original model's persisted session,
   then re-verifies the edited model (cone, delta or full rung) and
   persists the new graph.  Between ops the harness, untimed, restores
   the original session and drops the edited model's store entry, so
   every op starts from the same state and re-verifies for real.

   The edits are drawn once from a fixed pool seed, and --seed orders
   them: per-edit cost spans from a cone hit to a full re-run of a
   widened zone graph, so letting the seed choose the edits would make
   run-to-run spread a matter of which edits were drawn.  An op is one
   edit; op_p50_ms is the median over the run's rounds of the mean time
   per edit (the per-edit median is in the report).  Every answer is
   checked against a scratch Mc.Query.eval; an edit whose scratch probe
   passes 50k visited states is recorded as skipped and not used.
   Set-up is model build, store open and the cold session run that
   records each spec's first graph. *)

open Common

let edits_per_spec = 8
let max_draws = 40
let max_states = 50_000
let pool_seed = 7

let specs () =
  let net = gpca_psm () and ceiling = gpca_ceiling () in
  let bolus = Gpca.Model.bolus_req and start = Gpca.Model.start_infusion in
  [| { p_name = "gpca-psm-input";
       p_net = net;
       p_query =
         sup_query ~trigger:bolus ~response:(Transform.Names.input_chan bolus)
           ~ceiling };
     { p_name = "gpca-psm-output";
       p_net = net;
       p_query =
         sup_query ~trigger:(Transform.Names.output_chan start) ~response:start
           ~ceiling } |]

(* Budgeted scratch run: [Some answer] when tractable. *)
let scratch_answer net q =
  let ctl =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some max_states }
      ()
  in
  match (Mc.Query.eval ~ctl net q).Mc.Query.res_outcome with
  | Mc.Query.Unknown (Mc.Runctl.State_budget _, _) -> None
  | o -> Some (outcome_text o)

type edit = {
  e_spec : int;
  e_desc : string;
  e_net : Ta.Model.network;
  e_answer : string;  (* the scratch run's outcome *)
}

(* The first [edits_per_spec] tractable edits of each spec. *)
let pool specs =
  let skipped = ref 0 and scratch_ms = ref [] in
  let draw s spec =
    let rng = Random.State.make [| pool_seed; s |] in
    let rec go n acc =
      if List.length acc = edits_per_spec || n = max_draws then List.rev acc
      else
        let ed = Incr.Edit.random_edit rng spec.p_net in
        let answer, ms =
          time_ms (fun () -> scratch_answer ed.Incr.Edit.ed_net spec.p_query)
        in
        scratch_ms := ms :: !scratch_ms;
        match answer with
        | None ->
          incr skipped;
          go (n + 1) acc
        | Some a ->
          go (n + 1)
            ({ e_spec = s; e_desc = ed.Incr.Edit.ed_desc; e_net = ed.Incr.Edit.ed_net;
               e_answer = a }
            :: acc)
    in
    go 0 []
  in
  let edits = Array.of_list (List.concat (Array.to_list (Array.mapi draw specs))) in
  (edits, !skipped, !scratch_ms)

(* One spec's persisted session after the cold run on the original
   model, kept to be restored before every op. *)
type lane = {
  tag : string;
  skey : Store.D128.t;
  base : Store.Session.t;
  base_graph : string option;
}

let setup ~scratch specs () =
  let dir = fresh_dir scratch "edit-store" in
  let cache = open_cache dir in
  let disk = Analysis.Qcache.disk cache in
  let lane spec =
    let tag = "perfbench:" ^ spec.p_name in
    ignore (Incr.Session.run (Incr.Session.make ~cache ~tag ()) spec.p_net spec.p_query);
    let skey =
      Store.Session.session_key ~tag ~query:(Mc.Query.to_string spec.p_query)
    in
    match Store.Session.load disk skey with
    | Ok base -> { tag; skey; base; base_graph = Store.Session.load_graph disk skey }
    | Error msg -> failwith ("edit-loop: session not persisted: " ^ msg)
  in
  (dir, cache, Array.map lane specs)

type stats = {
  mutable rungs : (string * int) list;
  (* delta and full rungs only: *)
  mutable answer_ms : float list;  (* the answering exploration *)
  mutable persist_ms : float list;  (* the rest of the call *)
  mutable replayed : int;
  mutable expanded : int;
}

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let run cfg =
  let tally = tally () in
  let specs = specs () in
  let edits, skipped, scratch_ms = pool specs in
  let (dir, cache, lanes), setup_ms =
    repeated_setup
      ~dispose:(fun (d, _, _) -> rm_rf d)
      (setup ~scratch:cfg.scratch specs)
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let disk = Analysis.Qcache.disk cache in
  let st = { rungs = []; answer_ms = []; persist_ms = []; replayed = 0; expanded = 0 } in
  let n = Array.length edits in
  let rng = Random.State.make [| cfg.seed |] in
  let order = ref [||] in
  let op i =
    if i mod n = 0 then order := shuffle rng edits;
    let e = !order.(i mod n) in
    let spec = specs.(e.e_spec) and lane = lanes.(e.e_spec) in
    Store.Session.save disk lane.base;
    Option.iter (Store.Session.save_graph disk lane.skey) lane.base_graph;
    let o, ms =
      time_ms (fun () ->
          Trace.span ~layer:"bench" "edit" (fun () ->
              Trace.span ~layer:"incr.persist" "session" (fun () ->
                  let sess = Incr.Session.make ~cache ~tag:lane.tag () in
                  let o = Incr.Session.run sess e.e_net spec.p_query in
                  Trace.carve ~layer:"incr.answer"
                    (int_of_float (1e6 *. o.Incr.Session.so_answer_ms));
                  o)))
    in
    Store.Disk.remove disk (Analysis.Qcache.key e.e_net spec.p_query);
    (* a clean heap for the host-speed gauge and the next op *)
    Gc.compact ();
    let rung = Incr.Session.rung_name o.Incr.Session.so_rung in
    st.rungs <-
      (rung, 1 + Option.value ~default:0 (List.assoc_opt rung st.rungs))
      :: List.remove_assoc rung st.rungs;
    (match o.Incr.Session.so_rung with
     | Incr.Session.Delta | Incr.Session.Full ->
       st.answer_ms <- o.Incr.Session.so_answer_ms :: st.answer_ms;
       st.persist_ms <- (ms -. o.Incr.Session.so_answer_ms) :: st.persist_ms;
       st.replayed <- st.replayed + o.Incr.Session.so_replayed;
       st.expanded <- st.expanded + o.Incr.Session.so_expanded
     | Incr.Session.Store_hit | Incr.Session.Cone_hit -> ());
    let got = outcome_text o.Incr.Session.so_result.Mc.Query.res_outcome in
    check tally (got = e.e_answer)
      "edit-loop %s after %S (%s rung): answered %s, scratch %s" spec.p_name
      e.e_desc rung got e.e_answer;
    ms
  in
  let report op_ms =
    [ ("edits", Store.Json.Int n);
      ( "reverify_s",
        Store.Json.Float (sum op_ms /. 1000. /. float_of_int (List.length op_ms / n)) );
      ("reverify_p50_ms", Store.Json.Float (median op_ms));
      ( "incr.rung",
        Store.Json.Obj
          (List.map (fun (r, k) -> (r, Store.Json.Int k)) (List.sort compare st.rungs)
          @ [ ("skipped", Store.Json.Int skipped) ]) );
      ("incr.answer_ms", Store.Json.Float (median st.answer_ms));
      ("incr.persist_ms", Store.Json.Float (median st.persist_ms));
      ( "incr.replay_ratio",
        Store.Json.Float
          (float_of_int st.replayed /. float_of_int (max 1 (st.replayed + st.expanded))) );
      ("incr.scratch_ms", Store.Json.Float (median scratch_ms)) ]
  in
  if not cfg.trace then begin
    let op_ms, raw = window ~round:n ~seconds:cfg.seconds op in
    (* the pool is heterogeneous (cone hits beside delta re-runs), so its
       per-edit median is one edit's time; the mean over a round is not *)
    let per_edit l = List.map (fun ms -> ms /. float_of_int n) (chunk_sums n l) in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics =
        end_to_end ~setup_ms ~op_ms:(per_edit op_ms) ~ops_per_s:(sequential_rate op_ms);
      report = raw_report (per_edit raw) :: heap_report () :: report op_ms }
  end
  else begin
    let plain, _ = window ~round:n ~seconds:(cfg.seconds /. 2.) op in
    Trace.enabled := true;
    let traced, _ = window ~round:n ~seconds:(cfg.seconds /. 2.) op in
    Trace.enabled := false;
    let ledger, coverage = Trace.ledger () in
    let overhead = median traced /. median plain in
    let probes =
      Array.to_list
        (Array.map
           (fun e ->
             { (specs.(e.e_spec)) with
               p_name = specs.(e.e_spec).p_name ^ ": " ^ e.e_desc;
               p_net = e.e_net })
           edits)
    in
    let peak_mb = peak_heap_mb () in
    let acc = Layers.run tally ~scratch:cfg.scratch probes in
    { attempted = tally.attempted_;
      failed = tally.failed_;
      metrics = Layers.metrics acc ~peak_mb ~coverage ~overhead;
      report =
        ( "ledger_ms",
          Store.Json.Obj (List.map (fun (l, ms) -> (l, Store.Json.Float ms)) ledger) )
        :: report (plain @ traced) }
  end
