module Qcache = Analysis.Qcache

type rung = Store_hit | Cone_hit | Delta | Full

let rung_name = function
  | Store_hit -> "store"
  | Cone_hit -> "cone"
  | Delta -> "delta"
  | Full -> "full"

type outcome = {
  so_result : Mc.Query.result;
  so_rung : rung;
  so_replayed : int;
  so_expanded : int;
  so_answer_ms : float;
}

(* What the ladder remembers about the previous run of one query. *)
type prev = {
  pv_net : Ta.Model.network;
  pv_key : Store.D128.t;  (* v1 key its result is stored under *)
  pv_result : Mc.Query.result;
  pv_budget : Store.Entry.budget;
  pv_wall_ms : float;
}

type t = {
  s_cache : Qcache.t option;
  s_tag : string;
  mutable s_prev : (string * prev) list;  (* keyed by canonical query text *)
}

let make ?cache ~tag () = { s_cache = cache; s_tag = tag; s_prev = [] }

let note t rung =
  match t.s_cache with None -> () | Some c -> Qcache.note_rung c rung

(* --- previous-run state: memory first, then the persisted session --- *)

let prev_of_disk t qtext =
  match t.s_cache with
  | None -> None
  | Some cache ->
    let disk = Qcache.disk cache in
    let skey = Store.Session.session_key ~tag:t.s_tag ~query:qtext in
    (match Store.Session.load disk skey with
     | Error _ -> None
     | Ok s -> (
       match Xta.Parse.network s.Store.Session.ss_net with
       | Error _ -> None
       | Ok old_net -> (
         (* The result itself lives in the ordinary store under the
            session's recorded key. *)
         match Store.Disk.lookup disk s.Store.Session.ss_result_key with
         | Store.Disk.Hit e ->
           Some
             { pv_net = old_net;
               pv_key = s.Store.Session.ss_result_key;
               pv_result =
                 { Mc.Query.res_outcome =
                     Qcache.outcome_of_entry e.Store.Entry.en_outcome;
                   res_stats = Qcache.stats_of_entry e.Store.Entry.en_stats };
               pv_budget = e.Store.Entry.en_budget;
               pv_wall_ms = e.Store.Entry.en_prov.Store.Entry.pv_wall_ms }
         | _ -> None)))

let prev_for t qtext =
  match List.assoc_opt qtext t.s_prev with
  | Some pv -> Some pv
  | None -> prev_of_disk t qtext

let remember t qtext pv =
  t.s_prev <- (qtext, pv) :: List.remove_assoc qtext t.s_prev

(* Best-effort persistence: failures are swallowed — the session is a
   cache of a cache. *)
let persist t qtext pv =
  match t.s_cache with
  | None -> ()
  | Some cache -> (
    try
      let disk = Qcache.disk cache in
      let text = Xta.Print.to_string pv.pv_net in
      (* The manifest is computed from the reparsed text, not the
         in-memory network: fsck recomputes it the same way, so a
         print/parse normalisation can never flag a good session. *)
      let manifest =
        match Xta.Parse.network text with
        | Ok net -> Store.Key.manifest net
        | Error _ -> Store.Key.manifest pv.pv_net
      in
      Store.Session.save disk
        { Store.Session.ss_tag = t.s_tag;
          ss_query = qtext;
          ss_net = text;
          ss_result_key = pv.pv_key;
          ss_manifest = manifest }
    with _ -> ())

(* --- entries ---------------------------------------------------------- *)

let entry_of ~key ~qtext ~budget ~wall_ms (r : Mc.Query.result) =
  { Store.Entry.en_key = key;
    en_query = qtext;
    en_outcome = Qcache.outcome_to_entry r.Mc.Query.res_outcome;
    en_stats = Qcache.stats_to_entry r.Mc.Query.res_stats;
    en_budget = budget;
    en_prov = Qcache.provenance ~jobs:1 ~wall_ms }

let publish t entry =
  match t.s_cache with None -> () | Some c -> Qcache.insert c entry

(* --- the ladder ------------------------------------------------------- *)

let run ?ctl ?limit t net q =
  let qtext = Mc.Query.to_string q in
  let requested = Qcache.entry_budget ?limit ?ctl () in
  let k = Store.Key.digest ~query:qtext net in
  let store_hit =
    match t.s_cache with
    | None -> None
    | Some cache -> Qcache.find cache ~requested k
  in
  match store_hit with
  | Some e ->
    { so_result =
        { Mc.Query.res_outcome = Qcache.outcome_of_entry e.Store.Entry.en_outcome;
          res_stats = Qcache.stats_of_entry e.Store.Entry.en_stats };
      so_rung = Store_hit;
      so_replayed = 0;
      so_expanded = 0;
      so_answer_ms = 0. }
  | None ->
    let full () =
      let t0 = Unix.gettimeofday () in
      let r = Mc.Query.eval ~jobs:1 ?ctl ?limit net q in
      let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
      note t `Full;
      publish t (entry_of ~key:k ~qtext ~budget:requested ~wall_ms r);
      let pv =
        { pv_net = net;
          pv_key = k;
          pv_result = r;
          pv_budget = requested;
          pv_wall_ms = wall_ms }
      in
      remember t qtext pv;
      persist t qtext pv;
      { so_result = r;
        so_rung = Full;
        so_replayed = 0;
        so_expanded = r.Mc.Query.res_stats.Mc.Explorer.visited;
        so_answer_ms = wall_ms }
    in
    (match prev_for t qtext with
     | None -> full ()
     | Some pv ->
       let cone_reusable () =
         (* The previous result answers this request only under the
            entry reuse rule: definitive, or produced under a budget
            dominating the requested one. *)
         Store.Entry.reusable
           (entry_of ~key:pv.pv_key ~qtext ~budget:pv.pv_budget
              ~wall_ms:pv.pv_wall_ms pv.pv_result)
           ~requested
       in
       (match Cone.check ~old_net:pv.pv_net net q with
        | Ok () when cone_reusable () ->
          note t `Cone;
          (* Republish under the new network's key so an identical
             rerun answers on the store rung; the entry keeps the
             producing run's budget and provenance. *)
          publish t
            (entry_of ~key:k ~qtext ~budget:pv.pv_budget
               ~wall_ms:pv.pv_wall_ms pv.pv_result);
          (* The session deliberately stays at [pv]: future cone checks
             re-diff against [pv_net], so drift in the invisible part
             keeps hitting. *)
          { so_result = pv.pv_result;
            so_rung = Cone_hit;
            so_replayed = 0;
            so_expanded = 0;
            so_answer_ms = 0. }
        | Ok () | Error _ -> full ()))
