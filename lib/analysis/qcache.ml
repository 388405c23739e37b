type t = {
  disk : Store.Disk.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  errors : int Atomic.t;
  incr_cone : int Atomic.t;
  incr_full : int Atomic.t;
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
    incr_cone = Atomic.make 0;
    incr_full = Atomic.make 0;
    breaker;
    warn }

let disk t = t.disk
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let errors t = Atomic.get t.errors
let breaker t = t.breaker
let degraded t = Fault.Breaker.tripped t.breaker

(* Ladder-rung counters of the incremental layer ([Incr.Session]); the
   store-hit rung is the plain [hits] counter above. *)
let note_rung t = function
  | `Cone -> Atomic.incr t.incr_cone
  | `Full -> Atomic.incr t.incr_full

let rung_counts t =
  (Atomic.get t.incr_cone, Atomic.get t.incr_full)

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
      ( "incr",
        Obj
          [ ("cone", Int (Atomic.get t.incr_cone));
            ("full", Int (Atomic.get t.incr_full)) ] );
      ( "breaker",
        Obj
          [ ("state", String (Fault.Breaker.state_name t.breaker));
            ("trips", Int (Fault.Breaker.trips t.breaker));
            ("probes", Int (Fault.Breaker.probes t.breaker));
            ("failures", Int (Fault.Breaker.failures t.breaker)) ] ) ]

let key net q = Store.Key.digest ~query:(Mc.Query.to_string q) net

let entry_budget ?limit ?ctl () =
  let bg_limit = Option.value limit ~default:Mc.Explorer.default_limit in
  match ctl with
  | None ->
    { Store.Entry.unlimited with Store.Entry.bg_limit }
  | Some ctl ->
    let b = Mc.Runctl.budget ctl in
    { Store.Entry.bg_limit;
      bg_states = b.Mc.Runctl.b_states;
      bg_time_s = b.Mc.Runctl.b_time_s;
      bg_mem_bytes = b.Mc.Runctl.b_mem_bytes }

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

(* Publishing is also fallible and also must never hurt the query: an
   insert failure is logged, fed to the breaker, and swallowed — the
   computed result has already been produced and will be returned. *)
let insert t entry =
  match entry.Store.Entry.en_outcome with
  | Store.Entry.Unknown ((Store.Entry.Cancelled | Store.Entry.Crash _), _) -> ()
  | _ ->
    if Fault.Breaker.allow t.breaker then begin
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

(* --- conversions -------------------------------------------------------- *)

let sup_to_entry = function
  | Mc.Explorer.Sup_unreached -> Store.Entry.Sup_unreached
  | Mc.Explorer.Sup (v, strict) -> Store.Entry.Sup_value (v, strict)
  | Mc.Explorer.Sup_exceeds c -> Store.Entry.Sup_exceeds c

let sup_of_entry = function
  | Store.Entry.Sup_unreached -> Mc.Explorer.Sup_unreached
  | Store.Entry.Sup_value (v, strict) -> Mc.Explorer.Sup (v, strict)
  | Store.Entry.Sup_exceeds c -> Mc.Explorer.Sup_exceeds c

let reason_to_entry = function
  | Mc.Runctl.Time_budget s -> Store.Entry.Time_budget s
  | Mc.Runctl.State_budget n -> Store.Entry.State_budget n
  | Mc.Runctl.Memory_budget n -> Store.Entry.Memory_budget n
  | Mc.Runctl.Cancelled -> Store.Entry.Cancelled
  | Mc.Runctl.Crash msg -> Store.Entry.Crash msg

let reason_of_entry = function
  | Store.Entry.Time_budget s -> Mc.Runctl.Time_budget s
  | Store.Entry.State_budget n -> Mc.Runctl.State_budget n
  | Store.Entry.Memory_budget n -> Mc.Runctl.Memory_budget n
  | Store.Entry.Cancelled -> Mc.Runctl.Cancelled
  | Store.Entry.Crash msg -> Mc.Runctl.Crash msg

let outcome_to_entry = function
  | Mc.Query.Holds -> Store.Entry.Holds
  | Mc.Query.Fails trace -> Store.Entry.Fails trace
  | Mc.Query.Sup s -> Store.Entry.Sup (sup_to_entry s)
  | Mc.Query.Unknown (reason, partial) ->
    Store.Entry.Unknown (reason_to_entry reason, Option.map sup_to_entry partial)

let outcome_of_entry = function
  | Store.Entry.Holds -> Mc.Query.Holds
  | Store.Entry.Fails trace -> Mc.Query.Fails trace
  | Store.Entry.Sup s -> Mc.Query.Sup (sup_of_entry s)
  | Store.Entry.Unknown (reason, partial) ->
    Mc.Query.Unknown (reason_of_entry reason, Option.map sup_of_entry partial)

let stats_to_entry s =
  { Store.Entry.visited = s.Mc.Explorer.visited;
    stored = s.Mc.Explorer.stored;
    frontier = s.Mc.Explorer.frontier }

let stats_of_entry s =
  { Mc.Explorer.visited = s.Store.Entry.visited;
    stored = s.Store.Entry.stored;
    frontier = s.Store.Entry.frontier }

let tool = "psv/1.0.0"

let provenance ~jobs ~wall_ms =
  { Store.Entry.pv_tool = tool;
    pv_jobs = jobs;
    pv_wall_ms = wall_ms;
    pv_created = Unix.gettimeofday () }

(* --- cached evaluation -------------------------------------------------- *)

let eval t ?(jobs = 1) ?ctl ?limit net q =
  let requested = entry_budget ?limit ?ctl () in
  let k = key net q in
  match find t ~requested k with
  | Some e ->
    { Mc.Query.res_outcome = outcome_of_entry e.Store.Entry.en_outcome;
      res_stats = stats_of_entry e.Store.Entry.en_stats }
  | None ->
    let t0 = Unix.gettimeofday () in
    let r = Mc.Query.eval ~jobs ?ctl ?limit net q in
    let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
    insert t
      { Store.Entry.en_key = k;
        en_query = Mc.Query.to_string q;
        en_outcome = outcome_to_entry r.Mc.Query.res_outcome;
        en_stats = stats_to_entry r.Mc.Query.res_stats;
        en_budget = requested;
        en_prov = provenance ~jobs ~wall_ms };
    r
