type route = Plain | Cached of Analysis.Qcache.t | Session of Session.t

type t = {
  an_result : Mc.Query.result;
  an_rung : Session.rung option;
  an_snapshot : Mc.Explorer.snapshot option;
}

let run ?ctl ?limit ?resume route net q =
  let snapshot = ref None in
  let explore () =
    match q, resume with
    | Mc.Query.Sup_delay { trigger; response; ceiling }, _ ->
      let o =
        Mc.Query.max_delay ?limit ?ctl ?resume net ~trigger ~response ~ceiling
      in
      snapshot := o.Mc.Explorer.so_snapshot;
      Mc.Query.result_of_sup o
    | _, Some _ -> invalid_arg "Answer.run: only a sup search can be resumed"
    | _, None -> Mc.Query.eval ?ctl ?limit net q
  in
  let result, rung =
    match route with
    | Plain -> (explore (), None)
    | Cached c ->
      (Analysis.Qcache.cached c ?ctl ?limit net q ~run:explore, None)
    | Session s ->
      let o = Session.run ?ctl ?limit s net q in
      (o.Session.so_result, Some o.Session.so_rung)
  in
  { an_result = result; an_rung = rung; an_snapshot = !snapshot }

let expanded a =
  match a.an_rung with
  | Some Session.Full -> a.an_result.Mc.Query.res_stats.Mc.Explorer.visited
  | Some (Session.Store_hit | Session.Cone_hit | Session.Delta) | None -> 0
