(** The bridge between the model checker and the persistent result
    store ({!Store.Disk}).

    This module owns the lookup-before-run / insert-after protocol and
    the one place a store entry is built from a result ({!miss}).  Hit
    and miss counters live on the handle and are atomic, so a cache may
    be shared across the [--jobs] domain pool.

    {b Degraded mode.}  A {!Fault.Breaker} guards the store: host-level
    failures ({!Store.Disk.Unavailable} reads, raised inserts) count
    against it, and once it trips the store is bypassed entirely —
    every request computes from scratch and results are not published
    until the breaker's cooldown probe succeeds.  A sick cache can cost
    time, never an answer: no query ever fails because of cache I/O. *)

type t

(** [make ?warn ?breaker disk] wraps an open store.  [warn] receives one
    line per corrupt entry or store fault encountered (default: stderr);
    a corrupt entry is treated as a miss — the query is recomputed and
    the entry overwritten.  [breaker] defaults to a fresh
    {!Fault.Breaker.create}[ ()]. *)
val make : ?warn:(string -> unit) -> ?breaker:Fault.Breaker.t -> Store.Disk.t -> t

val disk : t -> Store.Disk.t
val hits : t -> int
val misses : t -> int

(** Store faults absorbed so far (unavailable reads + failed inserts). *)
val errors : t -> int

(** True once the breaker has ever tripped: some answers were (or are
    being) computed without the store.  Reported in cache stats and
    reflected in the CLI's degraded-completion exit code. *)
val degraded : t -> bool

(** The cache's live counters and breaker state as one JSON object —
    [{"hits", "misses", "errors", "degraded",
    "breaker": {"state", "trips", "probes", "failures"}}] —
    embedded in serve stats frames.  All sources are atomic, so a
    snapshot may be taken while worker domains evaluate. *)
val stats_json : t -> Store.Json.t

(** The cache key for evaluating [query] on [net] under the default
    explorer configuration: {!Store.Key.digest} over the canonical
    {!Mc.Query.to_string} text. *)
val key : Ta.Model.network -> Mc.Query.t -> Store.D128.t

(** The {!Store.Entry.budget} a run would be governed by: the explorer
    state limit (default {!Mc.Explorer.default_limit}) plus [ctl]'s
    budget components. *)
val entry_budget : ?limit:int -> ?ctl:Mc.Runctl.t -> unit -> Store.Entry.budget

(** [find t ~requested key] is the stored entry when present, readable
    and reusable under [requested] (see {!Store.Entry.reusable}).
    Counts a hit or a miss; warns (and counts a miss) on a corrupt
    entry; an unavailable store counts a breaker failure and a miss.
    With the breaker open the store is not touched at all. *)
val find : t -> requested:Store.Entry.budget -> Store.D128.t -> Store.Entry.t option

(** [insert t entry] publishes [entry] — unless its outcome is a
    cancelled [Unknown], which says nothing reusable about
    any run, or it is an [Unknown] and the entry already stored under
    its key is {!Store.Entry.reusable} under its budget (a definitive
    outcome, or an [Unknown] of a dominating budget), which stays.
    Insert failures are warned, fed to the breaker, and swallowed:
    publishing is strictly best-effort. *)
val insert : t -> Store.Entry.t -> unit

(** Identities: an entry holds the checker's own {!Mc.Query.outcome}
    and {!Mc.Explorer.stats}.  Kept only because perfbench compiles
    against them. *)
val outcome_to_entry : Mc.Query.outcome -> Mc.Query.outcome
val stats_to_entry : Mc.Explorer.stats -> Mc.Explorer.stats

(** [provenance ~jobs ~wall_ms] stamps an entry with this tool's version
    and the current time. *)
val provenance : jobs:int -> wall_ms:float -> Store.Entry.provenance

(** [entry ~key ~query ~budget ~jobs ~wall_ms r] is the store entry for
    result [r] of canonical query text [query], computed under [budget]
    on [jobs] domains in [wall_ms], stamped with {!provenance}. *)
val entry :
  key:Store.D128.t -> query:string -> budget:Store.Entry.budget -> jobs:int ->
  wall_ms:float -> Mc.Query.result -> Store.Entry.t

(** The result an entry records: its outcome and the producing run's
    statistics. *)
val result : Store.Entry.t -> Mc.Query.result

(** [miss ?cache ~key ~query ~budget run] is the miss half of
    {!cached}, for callers whose lookup already ran (or that keep the
    entry without a store): it times [run ()], builds the result's
    {!entry} (a one-domain search, [jobs = 1]) and {!insert}s it when
    [cache] is given.  Returns the result and the entry.  An exception
    from [run] propagates and publishes nothing. *)
val miss :
  ?cache:t -> key:Store.D128.t -> query:string -> budget:Store.Entry.budget ->
  (unit -> Mc.Query.result) -> Mc.Query.result * Store.Entry.t

(** [cached t net q ~run] answers [q] on [net] from the store when a
    reusable entry exists — with the producing run's statistics —
    otherwise calls [run] (which must evaluate [q] on [net] under the
    same [ctl] and [limit]) and publishes its result. *)
val cached :
  t -> ?ctl:Mc.Runctl.t -> ?limit:int ->
  Ta.Model.network -> Mc.Query.t -> run:(unit -> Mc.Query.result) ->
  Mc.Query.result

(** [eval t net q] is {!cached} around {!Mc.Query.eval}. *)
val eval :
  t -> ?ctl:Mc.Runctl.t -> ?limit:int ->
  Ta.Model.network -> Mc.Query.t -> Mc.Query.result
