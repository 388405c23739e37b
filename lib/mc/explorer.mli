(** Zone-graph exploration for compiled networks, with an optional
    non-blocking monitor composed at the semantic level.

    States are (location vector, variable valuation, monitor state, zone)
    tuples; zones are kept delay-closed under location invariants and
    extrapolated with per-clock maximal constants, so the search is finite
    whenever variables are bounded.  Subsumption (zone inclusion) prunes
    the passed/waiting store.

    Every query is governed: a search that exhausts a budget (the
    explorer's own state limit, or any budget of a supplied
    {!Runctl.t}) stops cleanly and reports the partial statistics and
    the interruption {!Runctl.reason} instead of raising.  The timed
    queries additionally emit a resumable {!snapshot} at that point.

    {b One domain.}  Every query runs the one sequential search loop
    ({!search}) on the calling domain: breadth-first, with a FIFO
    waiting queue, so counts, witnesses and snapshots are deterministic.
    Parallelism lives across queries ([Analysis.Pool.map]): searches
    share no mutable state, so independent ones may run on several
    domains at once.  An exception raised by a predicate or hook
    escapes the search. *)

type t

(** A symbolic state handed to predicates and fold functions. *)
type state = {
  st_locs : int array;
  st_vars : int array;
  st_mon : int;
  st_zone : Zone.Dbm.t;
}

type stats = {
  visited : int;   (** states popped and expanded *)
  stored : int;    (** states stored (after subsumption) *)
  frontier : int;  (** live waiting-queue length when the search ended *)
}

(** {1 Progress reporting}

    All searches report through one stats hook, called every 1000
    visited states, from the searching domain.  A search reads the hook
    once, when it starts.  The default hook prints to
    stderr when [PSV_MC_PROGRESS] is set in the environment (checked
    once, not per state); {!set_progress_hook} replaces it for
    embedding (TUIs, logging, cancellation timers). *)

type progress = {
  pr_visited : int;  (** states popped and expanded so far *)
  pr_stored : int;   (** states stored so far (after subsumption) *)
  pr_queue : int;    (** current waiting-queue length *)
}

val set_progress_hook : (progress -> unit) option -> unit

(** {1 Snapshots}

    A snapshot freezes an interrupted search: the live passed/waiting
    store (discrete state plus DBM rows), the waiting queue, the trace
    side-table, the visited/stored counters and the query's own
    accumulator.  Resuming continues to the verdict and the
    byte-identical statistics of an uninterrupted run.  Ids need not be
    consecutive: a checkpoint of an older build's partitioned search,
    whose ids have gaps, resumes to the verdict of an uninterrupted
    run.

    Snapshots are {!Keys.Frame} files: a magic carrying the format
    version ([PSVSNAP3]), the payload's digest and length, then the
    marshalled record.  {!load_snapshot} checks all three before
    [Marshal] reads a byte, so a truncated or bit-flipped file is an
    [Error], never a crash; it rejects foreign files, and names the
    version when handed a snapshot from an older build ([PSVSNAP1],
    [PSVSNAP2]) so the user knows to simply re-run the query.  The
    digest guards against corruption, not forgery.  A
    snapshot also records a 128-bit structural fingerprint
    ({!Keys.D128}) of the model text, monitor and explorer
    configuration — resuming against anything else is refused with
    [Invalid_argument]. *)

type snapshot

val save_snapshot : string -> snapshot -> unit

val load_snapshot : string -> (snapshot, string) result

(** [make ?monitor ?tight ?limit net] prepares an explorer.

    With the default per-clock extrapolation constants, sup-queries over
    monitor clocks are {e sound over-approximations}: the reported
    supremum is an upper bound on the true one, and may exceed it when
    extrapolating another clock loosens a difference bound involving the
    monitor clock.  [tight:true] raises every clock's extrapolation
    constant to the global maximum, which makes the sup exact at the cost
    of a (sometimes drastically) larger zone graph.  For the paper's
    purpose — a verified upper bound on the implementation's delay —
    soundness is what matters.

    [limit] bounds the number of visited states (default
    {!default_limit}); reaching it ends the search with
    [Unknown (State_budget limit)].

    [reduce] (default [true]) enables clock-activity reduction: clocks
    that are dead at a location (per {!Ta.Compiled.cl_free}) and monitor
    clocks outside their active states are freed, collapsing zones that
    differ only in dead-clock values.  Reachability, safety and
    monitor-clock sup results are unaffected; disable it only to inspect
    raw zones. *)
val make :
  ?monitor:Monitor.t -> ?tight:bool -> ?limit:int -> ?reduce:bool ->
  Ta.Model.network -> t

(** The default visited-state limit, [2_000_000]. *)
val default_limit : int

val compiled : t -> Ta.Compiled.t

(** {1 Predicate helpers} *)

val at : t -> aut:string -> loc:string -> state -> bool
val var_value : t -> string -> state -> int
val mon_in : t -> string -> state -> bool

(** {1 Queries}

    Each query accepts an optional [ctl] govern token
    ({!Runctl.create}); without one, only the explorer's state limit
    applies. *)

(** A candidate discrete transition out of a state, built by
    {!candidates} (declared here because the [expand] hooks below name
    it; the expansion engine itself lives at the end of this
    interface). *)
type candidate = private {
  cd_movers : (int * Ta.Compiled.cedge) list;
      (** the moving edges in update order (sender first), as
          [(automaton index, edge)] pairs: the per-step payload of a
          witness chain *)
  cd_chan : int option;  (** the synchronising channel's index *)
}

type reach_result = {
  r_trace : string list option;
      (** edge descriptions from the initial state, when found *)
  r_stats : stats;
  r_interrupt : Runctl.reason option;
      (** [Some] when the search stopped before exhausting the state
          space; a [None] trace then means "not found so far", not
          "unreachable" *)
}

(** [reachable t pred] is the UPPAAL query [E<> pred].  [expand]
    overrides successor generation as in {!search}; it stays because
    the per-layer benchmark drivers trace the explorer through it. *)
val reachable :
  ?expand:(Zone.Dbm.Pool.t -> state -> (candidate * state option) list) ->
  ?ctl:Runctl.t -> t -> (state -> bool) -> reach_result

type sup_result =
  | Sup_unreached          (** no reachable state satisfies the predicate *)
  | Sup of int * bool      (** supremum value; [true] means strict ([< v]) *)
  | Sup_exceeds of int     (** the supremum exceeds the clock's ceiling *)

(** The result of a governed sup-query.  On interruption [so_sup] is the
    sup over the states explored so far — a valid {e lower} bound on the
    true supremum (useful to refute a response bound early), and
    [so_snapshot] can be saved and passed back as [resume]. *)
type sup_outcome = {
  so_sup : sup_result;
  so_stats : stats;
  so_interrupt : Runctl.reason option;
  so_snapshot : snapshot option;
}

(** [sup_clock t ~pred ~clock] is the supremum of [clock] over all
    reachable states satisfying [pred] — the engine behind UPPAAL-style
    [sup] queries.  [clock] is typically a monitor clock; its ceiling
    (from the monitor declaration) bounds the values that are reported
    exactly.

    [resume] continues a previous interrupted run of the {e same} query
    on the {e same} model; the running sup is restored from the
    snapshot, and the combined run reaches the same result, and the
    same visited and stored counts, as an uninterrupted one.
    @raise Invalid_argument when the snapshot does not match. *)
val sup_clock :
  ?expand:(Zone.Dbm.Pool.t -> state -> (candidate * state option) list) ->
  ?ctl:Runctl.t -> ?resume:snapshot ->
  t -> pred:(state -> bool) -> clock:string -> sup_outcome

val pp_sup_result : Format.formatter -> sup_result -> unit

(** [find_timelock t] searches for a reachable state in which no discrete
    transition is possible and time cannot diverge (an urgent/committed
    location pins the clock, or a location invariant caps it).  Quiescent
    terminal states (no moves but unbounded delay) are not reported.
    An interrupted search ([r_interrupt <> None]) means "none found
    within budget".

    In a transformed PSM, timelocks mark reliance on the generated code's
    {e eagerness}: a deadline transition of [MIO] that the model may
    postpone past its last compute window.  When the guard window is wide
    enough (see [Analysis.Implementability.check_window_widths]) eager
    code never hits the deadline between windows and the timelock is a
    model-level artifact; when it is too narrow, even eager code misses
    the deadline and the timelock is a real defect.

    The search deduplicates states by zone equality rather than
    subsumption (a time-pinned sub-zone must not be hidden inside a wider
    stored zone), so it explores more states than {!reachable}.  The
    check is an {e under-approximation}: a symbolic state mixing blocked
    and live valuations is not flagged. *)
val find_timelock : ?ctl:Runctl.t -> t -> reach_result

(** One step of a timed witness: the transition description and the
    interval of absolute times at which the step can fire among runs
    following the witness's transition sequence.  Bounds are
    [(value, strict)]; [td_latest = None] means unbounded. *)
type timed_step = {
  td_desc : string;
  td_earliest : int * bool;
  td_latest : (int * bool) option;
}

(** [timed_trace t pred] is {!reachable} with timing: the witness chain is
    replayed exactly (no extrapolation, no activity reduction) with an
    absolute-time clock, and each step is annotated with its feasible
    firing-time interval.  [None] if the predicate is unreachable (or
    not reached within budget).  Every chain the search returns is a
    real zone-graph path, so its replay succeeds. *)
val timed_trace : t -> (state -> bool) -> timed_step list option

val pp_timed_step : Format.formatter -> timed_step -> unit

(** {1 Expansion engine}

    The successor-generation primitives behind {!search}, exposed for
    the [expand] hooks, the tests and the benchmarks.  Library-internal
    in spirit: prefer the query functions above. *)

(** The initial symbolic state (delay-closed, invariant-constrained,
    extrapolated).  Its zone may be empty if the initial invariants are
    unsatisfiable. *)
val initial_state : t -> state

(** All discrete transition candidates enabled in (the discrete part of)
    a state, in the deterministic enumeration order of the sequential
    search.  Zone satisfiability is {e not} checked here — {!fire}
    does that. *)
val candidates : t -> state -> candidate list

(** [fire t pool st cd] applies candidate [cd] to [st]: guards,
    location/variable updates, monitor step, resets, activity reduction,
    target invariants, delay closure and extrapolation.  [None] when the
    successor zone is empty (the scratch zone returns to [pool]); the
    returned state's zone is owned by the caller.  {!search} fires the
    same way, but keeps each discrete state's candidates and the
    zone-independent half of each firing (target vectors and hash, the
    clocks to reset and free, the target invariants) in a table on the
    state's store node, filled by the first firing whose guarded zone is
    non-empty; [fire] builds that half afresh on every call. *)
val fire : t -> Zone.Dbm.Pool.t -> state -> candidate -> state option

(** The result of {!fire_pre}.  [Fired_dead] means the successor zone
    emptied {e before} extrapolation — a fact independent of the
    extrapolation constants.  [Fired_live] carries the successor's
    discrete part, its zone as it stood just before extrapolation
    ([fl_pre], {!Zone.Dbm.to_ints} encoding) and the ordinary {!fire}
    result ([fl_state]; [None] only in the never-observed case of
    extrapolation emptying the zone, kept for exact [fire] parity). *)
type fired =
  | Fired_dead
  | Fired_live of {
      fl_state : state option;
      fl_locs : int array;
      fl_vars : int array;
      fl_mon : int;
      fl_pre : int array;
    }

(** [fire] with the pre-extrapolation successor zone exposed.
    Identical pipeline and zone results to {!fire}.  Kept only because
    the per-layer benchmark driver times firing and extrapolation apart
    with it. *)
val fire_pre : t -> Zone.Dbm.Pool.t -> state -> candidate -> fired

(** [admit_pre t ~locs ~vars ~mon ~pre] rebuilds a successor recorded by
    {!fire_pre}: decodes [pre], applies {e this} explorer's
    extrapolation, and returns exactly what {!fire} would have.  Kept
    only because the per-layer benchmark driver times extrapolation with
    it. *)
val admit_pre :
  t -> locs:int array -> vars:int array -> mon:int -> pre:int array ->
  state option

(** The live zones of one discrete state in {!search}'s passed/waiting
    store, exposed so tests can drive
    it directly.  Library-internal in spirit. *)
module Passed : sig
  (** A stored state: its id, the state, and whether a later zone of
      the same discrete state subsumed it. *)
  type entry

  val entry_id : entry -> int
  val entry_dead : entry -> bool

  (** The live entries of one discrete state, in insertion order.  A
      killed entry leaves a hole in its slot until holes reach half the
      slots and the node is compacted, in order. *)
  type node

  (** Slots per summarised block: every full block of slots keeps the
      lane-wise max and min of its live entries' {!Zone.Dbm.Key} keys,
      so one compare can rule out the whole block as covers or as
      victims. *)
  val block : int

  (** [node ~hash st] is an empty node for [st]'s discrete part;
      [hash] is the discrete part's hash, which the node keeps. *)
  val node : hash:int -> state -> node

  (** The node's live entries, oldest first. *)
  val live : node -> entry list

  (** Slots in use: the live entries plus the holes not yet compacted
      away. *)
  val slots : node -> int

  (** Per-search scratch: the dedup mode and the pool that covered and
      subsumed zones return to. *)
  type t

  (** [create ~subsume ~max_const pool]: with [subsume], dedup by zone
      inclusion (and drop live entries a new zone includes); without,
      by zone equality.  [max_const] is the largest extrapolation
      constant of the stored zones; it sizes the keys' lanes
      ({!Zone.Dbm.Key.make}), and zones with larger bounds are still
      handled exactly, with less pruning by the keys. *)
  val create : subsume:bool -> max_const:int -> Zone.Dbm.Pool.t -> t

  (** [add p n ~expanding ~id st] offers [st], a state of [n]'s discrete
      part with a non-empty zone.  If a live entry covers it, [st]'s
      zone returns to the pool and the result is [None].  Otherwise it
      is stored as entry [id] and returned; when subsuming, every live
      entry whose zone it includes is marked dead and leaves the node
      (its slot becomes a hole),
      and its zone returns to the pool unless its id is [expanding]
      (the entry whose successors are being generated). *)
  val add : t -> node -> expanding:int -> id:int -> state -> entry option
end

(** {2 Snapshot plumbing}

    A snapshot's content, for tools and tests that inspect or rebuild
    one.  Library-internal in spirit. *)

(** A stored state flattened for serialization: the raw discrete
    vectors plus the zone's encoded bound matrix
    ({!Zone.Dbm.to_ints}/{!Zone.Dbm.of_ints}). *)
type snap_entry = {
  se_id : int;
  se_locs : int array;
  se_vars : int array;
  se_mon : int;
  se_zone : int array;
}

val snapshot_next_id : snapshot -> int
val snapshot_visited : snapshot -> int
val snapshot_stored : snapshot -> int

(** Every live passed/waiting state of the interrupted run. *)
val snapshot_entries : snapshot -> snap_entry list

(** Ids of the waiting (not yet expanded) entries, in FIFO order. *)
val snapshot_queue : snapshot -> int array

(** Per id: parent id and the step's movers as
    [(automaton, edge-index)] pairs; [(-1, [])] for roots and for ids
    whose row the producing store no longer knew. *)
val snapshot_trace : snapshot -> (int * (int * int) list) array

(** The query's own accumulator (e.g. the marshalled running sup). *)
val snapshot_payload : snapshot -> string

(** [make_snapshot t ...] assembles a snapshot carrying [t]'s
    fingerprint and zone dimension from the given counters, store
    content and payload. *)
val make_snapshot :
  t -> label:string -> subsume:bool -> next_id:int -> visited:int ->
  stored:int -> entries:snap_entry list -> queue:int array ->
  trace:(int * (int * int) list) array -> payload:string -> snapshot

(** The result of a raw {!search}: the witness chain when the visit
    callback stopped the search, the final statistics, the interruption
    reason and (for interrupted runs) a resumable snapshot. *)
type search_result = {
  sr_chain : (int * Ta.Compiled.cedge) list list option;
  sr_stats : stats;
  sr_interrupt : Runctl.reason option;
  sr_snapshot : snapshot option;
}

(** [walk_as ~size tbl] lists [tbl]'s bindings in the order
    [Hashtbl.iter] would walk a table created with [Hashtbl.create size]
    that was given the same new keys in the same order, by [add] or
    [replace], and none removed.  [tbl] must have been created at most
    that big.  {!search} builds a small node table and walks it as one
    of 4096 buckets, which keeps snapshot bytes those of its historical
    table size. *)
val walk_as : size:int -> (int, 'a) Hashtbl.t -> (int * 'a) list

(** The one search loop behind every query, breadth-first on the
    calling domain.  It calls [visit st] on every stored state (including
    the initial one) and stops early when it returns [`Stop].
    [on_expanded] runs after a state's successors were generated, with
    the count of non-empty successors.  [subsume:false] deduplicates by
    zone equality instead of inclusion.  [label] names the query kind
    (must match on [resume]); [payload] saves the caller's accumulator
    into the snapshot.

    [expand] overrides successor generation for one popped state: it
    must return, in the enumeration order of {!candidates}, every
    candidate that {!fire} would return a successor for, paired with
    that successor ([None] pairs are permitted and skipped).  The loop
    then runs the identical bookkeeping (visit order, subsumption,
    counters, [`Stop] short-circuit) over the list, so a correct
    override — e.g. the benchmarks' traced firing — yields
    byte-identical results and statistics to the inline path, which
    fires from per-node successor tables (see {!fire}). *)
val search :
  ?on_expanded:(state -> int -> [ `Stop | `Continue ]) ->
  ?subsume:bool ->
  ?expand:(Zone.Dbm.Pool.t -> state -> (candidate * state option) list) ->
  ?ctl:Runctl.t ->
  ?resume:snapshot ->
  ?label:string ->
  ?payload:(unit -> string) ->
  t -> (state -> [ `Stop | `Continue ]) -> search_result
