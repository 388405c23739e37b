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

(* What the ladder remembers about the previous run of one query: the
   network it ran on and the entry its result is stored under. *)
type prev = {
  pv_net : Ta.Model.network;
  pv_entry : Store.Entry.t;
}

type t = {
  s_cache : Qcache.t option;
  s_tag : string;
  mutable s_prev : (string * prev) list;  (* keyed by canonical query text *)
}

let make ?cache ~tag () = { s_cache = cache; s_tag = tag; s_prev = [] }

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
         | Store.Disk.Hit e -> Some { pv_net = old_net; pv_entry = e }
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
          ss_result_key = pv.pv_entry.Store.Entry.en_key;
          ss_manifest = manifest }
    with _ -> ())

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
    { so_result = Qcache.result e;
      so_rung = Store_hit;
      so_replayed = 0;
      so_expanded = 0;
      so_answer_ms = 0. }
  | None ->
    let full () =
      let r, e =
        Qcache.miss ?cache:t.s_cache ~key:k ~query:qtext ~budget:requested
          ~jobs:1 (fun () -> Mc.Query.eval ~jobs:1 ?ctl ?limit net q)
      in
      let pv = { pv_net = net; pv_entry = e } in
      remember t qtext pv;
      persist t qtext pv;
      { so_result = r;
        so_rung = Full;
        so_replayed = 0;
        so_expanded = r.Mc.Query.res_stats.Mc.Explorer.visited;
        so_answer_ms = e.Store.Entry.en_prov.Store.Entry.pv_wall_ms }
    in
    (match prev_for t qtext with
     | None -> full ()
     | Some pv ->
       (* The previous result answers this request only under the entry
          reuse rule: definitive, or produced under a budget dominating
          the requested one. *)
       (match Cone.check ~old_net:pv.pv_net net q with
        | Ok () when Store.Entry.reusable pv.pv_entry ~requested ->
          (* Republish under the new network's key so an identical
             rerun answers on the store rung; the entry keeps the
             producing run's budget and provenance. *)
          Option.iter
            (fun c -> Qcache.insert c { pv.pv_entry with Store.Entry.en_key = k })
            t.s_cache;
          (* The session deliberately stays at [pv]: future cone checks
             re-diff against [pv_net], so drift in the invisible part
             keeps hitting. *)
          { so_result = Qcache.result pv.pv_entry;
            so_rung = Cone_hit;
            so_replayed = 0;
            so_expanded = 0;
            so_answer_ms = 0. }
        | Ok () | Error _ -> full ()))
