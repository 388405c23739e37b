(** A cached verification result: the model checker's own
    {!Mc.Query.outcome} and {!Mc.Explorer.stats}, keyed and stamped
    with the budget and provenance of the run that produced them.

    {b Reuse rule (budget dominance).}  Definitive outcomes ([Holds],
    [Fails], [Sup]) are facts about the model: once computed under
    {e any} budget they answer every future request for the same key —
    a bigger budget can reuse a smaller budget's result.  An [Unknown]
    is only a statement about the budget that produced it: it may be
    reused exactly when the cached run's budget {e dominates} the
    requested one (at least as many states, at least as much time and
    memory, an unlimited component dominating everything) — if the
    bigger run could not decide, the smaller one cannot either.
    Cancelled runs ([^C]) are never reused: cancellation says nothing
    about any budget. *)

(** The budget a run was (or would be) governed by.  [bg_limit] is the
    explorer's own visited-state limit; the optional components mirror
    [Mc.Runctl.budget].  [None] means unlimited. *)
type budget = {
  bg_limit : int;
  bg_states : int option;
  bg_time_s : float option;
  bg_mem_bytes : int option;
}

type provenance = {
  pv_tool : string;     (** producing tool and version, e.g. ["psv/1.0.0"] *)
  pv_jobs : int;        (** worker domains of the producing search *)
  pv_wall_ms : float;   (** wall time of the producing search *)
  pv_created : float;   (** unix time of insertion *)
}

type t = {
  en_key : Keys.D128.t; (** the content-addressed key ({!Keys.Key}) *)
  en_query : string;    (** canonical query text, for humans and [fsck] *)
  en_outcome : Mc.Query.outcome;
  en_stats : Mc.Explorer.stats;
  en_budget : budget;
  en_prov : provenance;
}

val unlimited : budget

(** [budget_of ?limit b] is the entry budget of a run governed by
    [Mc.Runctl] budget [b] under explorer state limit [limit] (default
    {!Mc.Explorer.default_limit}). *)
val budget_of : ?limit:int -> Mc.Runctl.budget -> budget

(** [budget_dominates ~cached ~requested]: every component of [cached]
    is at least as generous as [requested]'s. *)
val budget_dominates : cached:budget -> requested:budget -> bool

(** The reuse rule above. *)
val reusable : t -> requested:budget -> bool

(** The wire form of an outcome, a sup and search statistics: the bytes
    of [.psve] entries, [psv serve] responses, [psv check --json] rows,
    [psv verify --json] and [psv sweep-schemes] documents. *)
val outcome_to_json : Mc.Query.outcome -> Json.t
val sup_to_json : Mc.Explorer.sup_result -> Json.t
val stats_to_json : Mc.Explorer.stats -> Json.t

val to_json : t -> Json.t

(** Inverse of {!to_json}; [Error] names the missing or ill-typed
    field. *)
val of_json : Json.t -> (t, string) result

val pp : Format.formatter -> t -> unit
