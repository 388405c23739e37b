type delay_result = {
  dr_trigger : string;
  dr_response : string;
  dr_sup : Mc.Explorer.sup_result;
  dr_stats : Mc.Explorer.stats;
  dr_interrupt : Mc.Runctl.reason option;
  dr_snapshot : Mc.Explorer.snapshot option;
}

let monitor_clock = "psv_delay_mon"

let max_delay ?(jobs = 1) ?limit ?ctl ?resume net ~trigger ~response ~ceiling =
  let monitor =
    Mc.Monitor.delay ~trigger ~response ~clock:monitor_clock ~ceiling ()
  in
  let t = Mc.Explorer.make ~monitor ?limit net in
  (* snapshots use one format at every [jobs], so a checkpoint taken at
     any [jobs] resumes at any other *)
  let o =
    Mc.Explorer.sup_clock ~jobs ?ctl ?resume t
      ~pred:(Mc.Explorer.mon_in t "Waiting")
      ~clock:monitor_clock
  in
  { dr_trigger = trigger; dr_response = response;
    dr_sup = o.Mc.Explorer.so_sup;
    dr_stats = o.Mc.Explorer.so_stats;
    dr_interrupt = o.Mc.Explorer.so_interrupt;
    dr_snapshot = o.Mc.Explorer.so_snapshot }

let verdict_of_delay r ~bound =
  match r.dr_interrupt, r.dr_sup with
  | None, Mc.Explorer.Sup_unreached ->
    Mc.Explorer.Proved  (* the trigger never fires *)
  | None, Mc.Explorer.Sup (v, _) ->
    if v <= bound then Mc.Explorer.Proved else Mc.Explorer.Refuted None
  | None, Mc.Explorer.Sup_exceeds _ -> Mc.Explorer.Refuted None
  (* partial sups are lower bounds on the true sup, so exceeding the
     bound refutes even when the search was cut short *)
  | Some _, Mc.Explorer.Sup (v, _) when v > bound -> Mc.Explorer.Refuted None
  | Some _, Mc.Explorer.Sup_exceeds _ -> Mc.Explorer.Refuted None
  | Some reason, _ -> Mc.Explorer.Unknown reason

let satisfies_response_bound ?jobs ?limit ?ctl net ~trigger ~response ~bound =
  let r = max_delay ?jobs ?limit ?ctl net ~trigger ~response ~ceiling:bound in
  verdict_of_delay r ~bound

let pim_internal_bound ?limit (pim : Transform.Pim.t) ~input ~output ~ceiling =
  max_delay ?limit pim.Transform.Pim.pim_net ~trigger:input ~response:output
    ~ceiling

(* --- parallel query driver ---------------------------------------------- *)

(* Generic bounded domain pool over a work list.  Items are claimed by
   an atomic next-index counter; the first exception wins, parks in an
   atomic slot, drains the remaining items (workers stop claiming once
   a failure is recorded) and is re-raised on the caller's domain after
   the join. *)
let pool_map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        match Atomic.get failure with
        | Some _ -> ()
        | None ->
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f arr.(i) with
             | r -> results.(i) <- Some r
             | exception exn ->
               ignore (Atomic.compare_and_set failure None (Some exn)));
            loop ()
          end
      in
      loop ()
    in
    let doms = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join doms;
    (match Atomic.get failure with Some exn -> raise exn | None -> ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

type query_spec = {
  qs_name : string;
  qs_net : unit -> Ta.Model.network;
  qs_trigger : string;
  qs_response : string;
  qs_ceiling : int;
}

let spec_query spec =
  Mc.Query.Sup_delay
    { trigger = spec.qs_trigger;
      response = spec.qs_response;
      ceiling = spec.qs_ceiling }

(* A cached entry for a sup query, replayed as a delay_result.  The
   entry's outcome is [Sup] (finished) or [Unknown] with the partial sup
   (interrupted); anything else means the entry was produced by a
   different query kind under a colliding key, which we treat as a miss
   rather than trust. *)
let delay_of_entry spec (e : Store.Entry.t) =
  let finish sup interrupt =
    Some
      { dr_trigger = spec.qs_trigger;
        dr_response = spec.qs_response;
        dr_sup = sup;
        dr_stats = Qcache.stats_of_entry e.Store.Entry.en_stats;
        dr_interrupt = interrupt;
        dr_snapshot = None }
  in
  match e.Store.Entry.en_outcome with
  | Store.Entry.Sup s -> finish (Qcache.sup_of_entry s) None
  | Store.Entry.Unknown (reason, partial) ->
    let sup =
      match partial with
      | Some s -> Qcache.sup_of_entry s
      | None -> Mc.Explorer.Sup_unreached
    in
    finish sup (Some (Qcache.reason_of_entry reason))
  | Store.Entry.Holds | Store.Entry.Fails _ -> None

let entry_of_delay ~key ~query ~budget ~jobs ~wall_ms r =
  let outcome =
    match r.dr_interrupt with
    | None -> Store.Entry.Sup (Qcache.sup_to_entry r.dr_sup)
    | Some reason ->
      Store.Entry.Unknown
        (Qcache.reason_to_entry reason, Some (Qcache.sup_to_entry r.dr_sup))
  in
  { Store.Entry.en_key = key;
    en_query = query;
    en_outcome = outcome;
    en_stats = Qcache.stats_to_entry r.dr_stats;
    en_budget = budget;
    en_prov = Qcache.provenance ~jobs ~wall_ms }

let run_all ?(jobs = 1) ?(search_jobs = 1) ?limit ?ctl ?cache specs =
  pool_map ~jobs
    (fun spec ->
      (* each worker builds its own network from the thunk, so no model
         structure is shared across domains *)
      let net = spec.qs_net () in
      let run () =
        max_delay ~jobs:search_jobs ?limit ?ctl net ~trigger:spec.qs_trigger
          ~response:spec.qs_response ~ceiling:spec.qs_ceiling
      in
      match cache with
      | None -> (spec, run ())
      | Some cache ->
        let q = spec_query spec in
        let key = Qcache.key net q in
        let requested = Qcache.entry_budget ?limit ?ctl () in
        let cached =
          Option.bind (Qcache.find cache ~requested key) (delay_of_entry spec)
        in
        (match cached with
         | Some r -> (spec, r)
         | None ->
           let t0 = Unix.gettimeofday () in
           let r = run () in
           let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
           Qcache.insert cache
             (entry_of_delay ~key ~query:(Mc.Query.to_string q)
                ~budget:requested ~jobs:search_jobs ~wall_ms r);
           (spec, r)))
    specs

let pp_delay_result ppf r =
  Fmt.pf ppf "max delay %s -> %s: %a (%d states)" r.dr_trigger r.dr_response
    Mc.Explorer.pp_sup_result r.dr_sup r.dr_stats.Mc.Explorer.visited;
  match r.dr_interrupt with
  | Some reason -> Fmt.pf ppf " [interrupted: %a]" Mc.Runctl.pp_reason reason
  | None -> ()
