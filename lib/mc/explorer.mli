(** Zone-graph exploration for compiled networks, with an optional
    non-blocking monitor composed at the semantic level.

    States are (location vector, variable valuation, monitor state, zone)
    tuples; zones are kept delay-closed under location invariants and
    extrapolated with per-clock maximal constants, so the search is finite
    whenever variables are bounded.  Subsumption (zone inclusion) is the
    one dedup mode of the passed/waiting store.

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
    once, when it starts.  There is none by default;
    {!set_progress_hook} installs one for embedding (TUIs, logging,
    cancellation timers). *)

type progress = {
  pr_visited : int;  (** states popped and expanded so far *)
  pr_stored : int;   (** states stored so far (after subsumption) *)
  pr_queue : int;    (** current waiting-queue length *)
}

val set_progress_hook : (progress -> unit) option -> unit

type sup_result =
  | Sup_unreached          (** no reachable state satisfies the predicate *)
  | Sup of int * bool      (** supremum value; [true] means strict ([< v]) *)
  | Sup_exceeds of int     (** the supremum exceeds the clock's ceiling *)

(** {1 Snapshots}

    A snapshot freezes an interrupted search: the live passed/waiting
    store, the waiting queue, the trace side-table, the visited counter
    and the running sup.  Resuming continues to the verdict and the
    byte-identical statistics of an uninterrupted run.

    A snapshot file is a {!Keys.Frame} ([PSVSNAP4]) around the record's
    fields as {!Keys.Varint}s.  {!load_snapshot} checks the frame, then
    refuses bytes of any other shape: a damaged, foreign or older
    ([PSVSNAP1] to [PSVSNAP3]) file is an [Error] that says which, never
    a crash.  A resumed search checks every value against its own
    explorer before it uses one (fingerprint of model, monitor and
    configuration, query label, ids, edges, ranges, canonical zones) and
    refuses anything else with [Invalid_argument]. *)

(** A live stored state: discrete vectors and {!Zone.Dbm.to_ints} zone. *)
type snap_entry = {
  se_id : int;
  se_locs : int array;
  se_vars : int array;
  se_mon : int;
  se_zone : int array;
}

type snapshot = {
  snap_fingerprint : Keys.D128.t;
  snap_label : string;  (** the query kind that took it, e.g. [sup:mon] *)
  snap_next_id : int;  (** ids [0 .. next_id - 1] were stored *)
  snap_visited : int;
  snap_sup : sup_result;
      (** a sup query's running sup; [Sup_unreached] for other searches *)
  snap_entries : snap_entry list;
      (** every live passed/waiting state, in id order *)
  snap_queue : int array;  (** waiting entry ids, in FIFO order *)
  snap_trace : (int * (int * int) list) array;
      (** per id: parent id ([-1] for the root) and the step's movers as
          [(automaton, edge-index)] pairs *)
}

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

    [until] is the caller's stop rule: it is asked after each stored
    state with the running sup, and the search ends at the first state
    for which it holds — [so_sup] is then that running sup, a lower
    bound as on interruption, [so_interrupt] is [None] and the
    statistics count the prefix searched.  It must be monotone (true of
    a sup stays true of every larger one), so the stop falls where the
    caller's answer can no longer change; [Sup_exceeds] is absorbing, so
    stopping there keeps [so_sup] exact.  Default: never stop.
    @raise Invalid_argument when the snapshot does not match. *)
val sup_clock :
  ?expand:(Zone.Dbm.Pool.t -> state -> (candidate * state option) list) ->
  ?ctl:Runctl.t -> ?resume:snapshot -> ?until:(sup_result -> bool) ->
  t -> pred:(state -> bool) -> clock:string -> sup_outcome

val pp_sup_result : Format.formatter -> sup_result -> unit

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
    firing-time interval: [Ok (Some steps)].  [Ok None] means the
    predicate is unreachable; [Error reason] means the explorer's state
    limit stopped the search before it found the predicate or ran out
    of states, so reachability is unknown.  Every chain the search
    returns is a real zone-graph path, so its replay succeeds. *)
val timed_trace :
  t -> (state -> bool) -> (timed_step list option, Runctl.reason) result

val pp_timed_step : Format.formatter -> timed_step -> unit

(** {1 Expansion engine}

    The successor-generation primitives behind {!search}, exposed for
    the [expand] hooks, the tests and the benchmarks.  Library-internal
    in spirit: prefer the query functions above. *)

(** The initial symbolic state (delay-closed, invariant-constrained,
    extrapolated).  Its zone may be empty if the initial invariants are
    unsatisfiable. *)
val initial_state : t -> state

(** [live_rows t st] is the row set of [st]'s discrete state: row 0 and
    every clock that is not dead there, dead meaning left inactive by
    the monitor state or, unless [make ~reduce:false], freed by
    activity reduction at some automaton's location.  Every zone
    {!initial_state} and {!fire} build, and so every zone the search
    stores, is infinite off the diagonal in every other row, so the
    search extrapolates, tests inclusion and weighs keys over these
    rows alone.  A resumed snapshot entry with a finite entry in such a
    row is refused. *)
val live_rows : t -> state -> int array

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

  (** [node ~hash ~rows st] is an empty node for [st]'s discrete part;
      [hash] is the discrete part's hash, which the node keeps.  Its
      inclusion tests and key weights read only the rows in [rows], a
      {!Zone.Dbm.extrapolate} row set: every zone offered to the node
      must be infinite off the diagonal outside it.  The search passes
      {!live_rows}; {!Zone.Dbm.all_rows} needs no such promise. *)
  val node : hash:int -> rows:int array -> state -> node

  (** The node's live entries, oldest first. *)
  val live : node -> entry list

  (** Slots in use: the live entries plus the holes not yet compacted
      away. *)
  val slots : node -> int

  (** Per-search scratch, and the pool that covered and subsumed zones
      return to. *)
  type t

  (** [create ~max_const pool] dedups by zone inclusion, and drops the
      live entries a new zone includes.  [max_const] is the largest
      extrapolation constant of the stored zones; it sizes the keys'
      lanes ({!Zone.Dbm.Key.make}), and zones with larger bounds are
      still handled exactly, with less pruning by the keys. *)
  val create : max_const:int -> Zone.Dbm.Pool.t -> t

  (** [add p n ~expanding ~id st] offers [st], a state of [n]'s discrete
      part with a non-empty zone.  If a live entry covers it, [st]'s
      zone returns to the pool and the result is [None].  Otherwise it
      is stored as entry [id] and returned; every live entry whose zone
      it includes is marked dead and leaves the node (its slot becomes a
      hole), and its zone returns to the pool unless its id is [expanding]
      (the entry whose successors are being generated). *)
  val add : t -> node -> expanding:int -> id:int -> state -> entry option
end

(** The result of a raw {!search}: the witness chain when the visit
    callback stopped the search, the final statistics, the interruption
    reason and (for interrupted runs) a resumable snapshot. *)
type search_result = {
  sr_chain : (int * Ta.Compiled.cedge) list list option;
  sr_stats : stats;
  sr_interrupt : Runctl.reason option;
  sr_snapshot : snapshot option;
}

(** The one search loop behind every query, breadth-first on the
    calling domain.  It calls [visit st] on every stored state (including
    the initial one) and stops early when it returns [`Stop].  Stored
    zones are deduplicated by inclusion: a zone some stored zone of its
    discrete state includes is dropped, and a new zone drops the stored
    zones it includes.  [label] names the query kind (must match on
    [resume]).  An interrupted search's snapshot has [snap_sup =
    Sup_unreached]: a caller with a running sup fills it in.

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
  ?expand:(Zone.Dbm.Pool.t -> state -> (candidate * state option) list) ->
  ?ctl:Runctl.t ->
  ?resume:snapshot ->
  ?label:string ->
  t -> (state -> [ `Stop | `Continue ]) -> search_result
