type t = {
  disk : Store.Disk.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  errors : int Atomic.t;
  breaker : Fault.Breaker.t;
  warn : string -> unit;
}

let default_warn msg = Printf.eprintf "psv: cache: warning: %s\n%!" msg

let make ?(warn = default_warn) ?breaker disk =
  let breaker =
    match breaker with Some b -> b | None -> Fault.Breaker.create ()
  in
  { disk;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    errors = Atomic.make 0;
    breaker;
    warn }

let disk t = t.disk
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let errors t = Atomic.get t.errors
let degraded t = Fault.Breaker.tripped t.breaker

(* Counter export for the serve metrics surface: everything a stats
   frame reports about the store, including the breaker's state machine
   so degraded-mode flips are observable, not just a stderr line. *)
let stats_json t =
  let open Store.Json in
  Obj
    [ ("hits", Int (Atomic.get t.hits));
      ("misses", Int (Atomic.get t.misses));
      ("errors", Int (Atomic.get t.errors));
      ("degraded", Bool (degraded t));
      ( "breaker",
        Obj
          [ ("state", String (Fault.Breaker.state_name t.breaker));
            ("trips", Int (Fault.Breaker.trips t.breaker));
            ("probes", Int (Fault.Breaker.probes t.breaker));
            ("failures", Int (Fault.Breaker.failures t.breaker)) ] ) ]

let key net q = Store.Key.digest ~query:(Mc.Query.to_string q) net

let entry_budget ?limit ?ctl () =
  Store.Entry.budget_of ?limit
    (match ctl with None -> Mc.Runctl.no_budget | Some c -> Mc.Runctl.budget c)

(* The breaker guards host I/O, not content: [Unavailable] (sick disk)
   counts as a failure, [Corrupt] (bad bytes on a healthy disk) does
   not.  While the breaker is open the store is not touched at all —
   every request is a miss and the query computes from scratch.  The
   cache can degrade the answer's latency, never its availability. *)
let find t ~requested key =
  if not (Fault.Breaker.allow t.breaker) then begin
    Atomic.incr t.misses;
    None
  end
  else
    match Store.Disk.lookup t.disk key with
    | Store.Disk.Hit e when Store.Entry.reusable e ~requested ->
      Fault.Breaker.success t.breaker;
      Atomic.incr t.hits;
      Some e
    | Store.Disk.Hit _ | Store.Disk.Miss ->
      Fault.Breaker.success t.breaker;
      Atomic.incr t.misses;
      None
    | Store.Disk.Corrupt msg ->
      Fault.Breaker.success t.breaker;
      t.warn
        (Printf.sprintf "corrupt entry %s (%s); recomputing" (Store.D128.to_hex key)
           msg);
      Atomic.incr t.misses;
      None
    | Store.Disk.Unavailable msg ->
      Fault.Breaker.failure t.breaker;
      Atomic.incr t.errors;
      t.warn
        (Printf.sprintf "store unavailable reading %s (%s); recomputing"
           (Store.D128.to_hex key) msg);
      Atomic.incr t.misses;
      None

(* The key leaves budgets out, so an [Unknown] may land on a key that
   already holds an answer at least as good under its own budget: a
   definitive outcome, or an [Unknown] of a dominating budget.  That
   entry stays; overwriting it would turn later hits into misses. *)
let superseded t entry =
  match entry.Store.Entry.en_outcome with
  | Mc.Query.Unknown _ -> (
    match Store.Disk.lookup t.disk entry.Store.Entry.en_key with
    | Store.Disk.Hit e ->
      Store.Entry.reusable e ~requested:entry.Store.Entry.en_budget
    | Store.Disk.Miss | Store.Disk.Corrupt _ | Store.Disk.Unavailable _ -> false)
  | _ -> false

(* Publishing is also fallible and also must never hurt the query: an
   insert failure is logged, fed to the breaker, and swallowed — the
   computed result has already been produced and will be returned. *)
let insert t entry =
  match entry.Store.Entry.en_outcome with
  | Mc.Query.Unknown ((Mc.Runctl.Cancelled | Mc.Runctl.Crash _), _) -> ()
  | _ ->
    if Fault.Breaker.allow t.breaker && not (superseded t entry) then begin
      match Store.Disk.insert t.disk entry with
      | () -> Fault.Breaker.success t.breaker
      | exception exn ->
        Fault.Breaker.failure t.breaker;
        Atomic.incr t.errors;
        t.warn
          (Printf.sprintf "store unavailable writing %s (%s); result not cached"
             (Store.D128.to_hex entry.Store.Entry.en_key)
             (Printexc.to_string exn))
    end

(* Identities, kept only because perfbench compiles against them. *)
let outcome_to_entry o = o
let stats_to_entry s = s

let tool = "psv/1.0.0"

let provenance ~jobs ~wall_ms =
  { Store.Entry.pv_tool = tool;
    pv_jobs = jobs;
    pv_wall_ms = wall_ms;
    pv_created = Unix.gettimeofday () }

(* --- cached evaluation -------------------------------------------------- *)

let entry ~key ~query ~budget ~jobs ~wall_ms (r : Mc.Query.result) =
  { Store.Entry.en_key = key;
    en_query = query;
    en_outcome = r.res_outcome;
    en_stats = r.res_stats;
    en_budget = budget;
    en_prov = provenance ~jobs ~wall_ms }

let result (e : Store.Entry.t) =
  { Mc.Query.res_outcome = e.en_outcome; res_stats = e.en_stats }

(* The miss half of [cached], also for callers whose lookup ran
   elsewhere or that keep the entry without a store. *)
let miss ?cache ~key ~query ~budget ~jobs run =
  let t0 = Unix.gettimeofday () in
  let r = run () in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let e = entry ~key ~query ~budget ~jobs ~wall_ms r in
  Option.iter (fun t -> insert t e) cache;
  (r, e)

let cached t ?(jobs = 1) ?ctl ?limit net q ~run =
  let budget = entry_budget ?limit ?ctl () in
  let key = key net q in
  match find t ~requested:budget key with
  | Some e -> result e
  | None ->
    fst (miss ~cache:t ~key ~query:(Mc.Query.to_string q) ~budget ~jobs run)

let eval t ?jobs ?ctl ?limit net q =
  cached t ?jobs ?ctl ?limit net q ~run:(fun () ->
      Mc.Query.eval ?jobs ?ctl ?limit net q)
