(** Model-checking-backed delay queries: the "Verified Upper Bound (PSM)"
    machinery of Table I.  Works uniformly on a PIM or a PSM network,
    since both expose the boundary events as channels. *)

type delay_result = {
  dr_trigger : string;
  dr_response : string;
  dr_sup : Mc.Explorer.sup_result;
  dr_stats : Mc.Explorer.stats;
  dr_interrupt : Mc.Runctl.reason option;
      (** [Some] when a budget or cancellation cut the search short; the
          sup and stats are then partial (the sup is a lower bound on
          the true supremum) *)
  dr_snapshot : Mc.Explorer.snapshot option;
      (** present exactly when interrupted; save it and pass it back as
          [resume] to continue *)
}

(** [max_delay net ~trigger ~response ~ceiling] is the supremum, over all
    runs, of the time between a [trigger] synchronisation and the
    following [response] synchronisation, measured by a non-blocking
    monitor.  [Sup_exceeds] means the delay is not bounded by [ceiling]
    (possibly unbounded).

    [ctl] governs the run (budgets, cancellation); [resume] continues an
    interrupted run from its snapshot — same trigger, response, ceiling
    and network required ({!Mc.Explorer.sup_clock} checks the
    fingerprint).  [jobs] (default 1) runs the exploration itself on
    that many domains ({!Mc.Explorer.search}): identical sup, and the same
    snapshot format — a checkpoint taken at any [jobs] resumes at any
    other.
    @raise Invalid_argument when the snapshot does not match. *)
val max_delay :
  ?jobs:int -> ?limit:int -> ?ctl:Mc.Runctl.t -> ?resume:Mc.Explorer.snapshot ->
  Ta.Model.network ->
  trigger:string -> response:string -> ceiling:int -> delay_result

(** The three-valued bound check behind {!satisfies_response_bound},
    exposed for callers that already ran {!max_delay} with
    [ceiling = bound]. *)
val verdict_of_delay : delay_result -> bound:int -> Mc.Explorer.verdict

(** [satisfies_response_bound net ~trigger ~response ~bound] is the
    requirement [P(Δ)]: every [trigger] is answered within [bound].
    Decided by comparing the verified supremum against [bound] (the
    ceiling used is [bound], so the check is exact).  [Unknown] when the
    governed search was interrupted without the partial sup already
    exceeding the bound. *)
val satisfies_response_bound :
  ?jobs:int -> ?limit:int -> ?ctl:Mc.Runctl.t ->
  Ta.Model.network ->
  trigger:string -> response:string -> bound:int -> Mc.Explorer.verdict

(** The maximum internal delay [Δio-internal] of a PIM for an
    input/output pair — in the PIM the platform does not exist, so the
    m-to-c delay {e is} the internal delay. *)
val pim_internal_bound :
  ?limit:int ->
  Transform.Pim.t ->
  input:string -> output:string -> ceiling:int -> delay_result

(** [pool_map ~jobs f items] maps [f] over [items] on a pool of [jobs]
    domains (clamped to the item count; [jobs <= 1] is a plain
    [List.map]).  Results keep list order.  If any [f] raises, the pool
    drains and the first exception is re-raised on the caller's
    domain. *)
val pool_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** One delay query of a batch: a name for reporting, a thunk building
    the network (called on the worker domain, so no model structure is
    shared between domains), and the boundary pair with its ceiling. *)
type query_spec = {
  qs_name : string;
  qs_net : unit -> Ta.Model.network;
  qs_trigger : string;
  qs_response : string;
  qs_ceiling : int;
}

(** [run_all ~jobs specs] evaluates independent delay queries on a pool
    of [jobs] domains ({!pool_map}); [search_jobs] additionally
    parallelises {e each} exploration (default 1 — for a batch, one
    domain per query usually beats splitting a single search).  Results
    keep the order of [specs].

    A shared [ctl] governs the whole batch: its wall-clock budget is
    measured from token creation (so concurrent queries race the same
    deadline), the visited-state budget applies {e per query} (each
    search counts its own states), and {!Mc.Runctl.cancel} stops every
    query at its next poll.

    With [cache], each query does lookup-before-run and insert-after
    against the persistent store ({!Qcache}): a stored result whose
    producing budget satisfies the reuse rule ({!Store.Entry.reusable})
    is returned without any exploration — with the producing run's
    statistics and no snapshot.  The cache handle is shared across the
    pool; hit/miss counters on it are atomic, and concurrent inserts are
    safe (the store publishes entries by atomic rename). *)
val run_all :
  ?jobs:int -> ?search_jobs:int -> ?limit:int -> ?ctl:Mc.Runctl.t ->
  ?cache:Qcache.t ->
  query_spec list -> (query_spec * delay_result) list

(** The {!Mc.Query.t} a spec denotes ([Sup_delay]); its
    {!Mc.Query.to_string} form keys the cache. *)
val spec_query : query_spec -> Mc.Query.t

val pp_delay_result : Format.formatter -> delay_result -> unit
