(** A small UPPAAL-flavoured query language over networks.

    Grammar (whitespace-insensitive):

    {v
query ::= "E<>" pred                        existential reachability
        | "A[]" pred                        invariance
        | "sup:" chan "->" chan             maximum delay between two
            [ "ceiling" INT ]                 synchronisations (default
                                              ceiling 10000)
        | "bounded:" chan "->" chan "within" INT
                                            the paper's P(Δ)

pred  ::= term { "or" term }
term  ::= factor { "and" factor }
factor::= "not" factor | "(" pred ")" | atom | "true" | "false"
atom  ::= IDENT "." IDENT                   process at location
        | IDENT cmp INT                     variable comparison
cmp   ::= "==" | "!=" | "<" | "<=" | ">" | ">="
    v}

    Examples: ["E<> Pump.Infusing"], ["A[] iovf_BolusReq == 0"],
    ["sup: m_BolusReq -> c_StartInfusion ceiling 2000"],
    ["bounded: m_BolusReq -> c_StartInfusion within 500"]. *)

type pred =
  | At of string * string
  | Cmp of string * Ta.Expr.rel * int
  | Const of bool
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type t =
  | Exists_eventually of pred
  | Always of pred
  | Sup_delay of { trigger : string; response : string; ceiling : int }
  | Bounded_response of { trigger : string; response : string; bound : int }

type outcome =
  | Holds
  | Fails of string list option  (** counterexample trace when available *)
  | Sup of Explorer.sup_result
  | Unknown of Runctl.reason * Explorer.sup_result option
      (** the search was interrupted before a definite answer; for the
          timed queries the partial sup explored so far rides along.
          A [Bounded_response] whose partial sup already exceeds the
          bound is reported [Fails], not [Unknown] — the sup only grows. *)

(** An evaluated query: the three-valued outcome plus the exploration
    statistics (partial when the outcome is [Unknown]). *)
type result = {
  res_outcome : outcome;
  res_stats : Explorer.stats;
}

(** [parse text] parses a query.  Errors mention the offending token.
    A number that does not fit an [int], and a ceiling or bound past
    {!Ta.Clockcons.max_constant}, are errors too. *)
val parse : string -> (t, string) Stdlib.result

(** Canonical text form: [parse (to_string q) = Ok q], and two queries
    print equal iff their trees are equal (binary predicate nodes are
    fully parenthesized).  This is the query contribution to the result
    store's cache key. *)
val to_string : t -> string

(** [eval net q] builds the needed explorer (with a delay monitor for the
    timed queries) and evaluates under the optional [ctl] govern token,
    on the calling domain.  [jobs] is ignored; it is accepted only so
    that existing benchmark drivers compile.
    [Sup_delay] is {!max_delay}; [Bounded_response] is the same search
    with [ceiling = bound], decided by {!bounded_of_sup} and stopped at
    the first stored state whose running sup passes the bound: a
    refuted bound reports the statistics of that prefix, a bound that
    holds those of the full search.
    @raise Ta.Compiled.Compile_error on an
    invalid network, [Not_found] if the query names an unknown process,
    location or variable. *)
val eval :
  ?jobs:int -> ?ctl:Runctl.t -> ?limit:int -> Ta.Model.network -> t -> result

(** [max_delay net ~trigger ~response ~ceiling] is the supremum, over all
    runs, of the time between a [trigger] synchronisation and the
    following [response] synchronisation, measured by a non-blocking
    monitor on {!delay_monitor_clock}.  [Sup_exceeds] means the delay is
    not bounded by [ceiling] (possibly unbounded).  Works on a PIM and a
    PSM alike, since both expose the boundary events as channels.

    [resume] continues an interrupted run from its snapshot — same
    trigger, response, ceiling and network required
    ({!Explorer.sup_clock} checks the fingerprint).  [until] is
    {!Explorer.sup_clock}'s monotone stop rule: the search ends at the
    first stored state whose running sup satisfies it.
    @raise Invalid_argument when the snapshot does not match. *)
val max_delay :
  ?limit:int -> ?ctl:Runctl.t -> ?resume:Explorer.snapshot ->
  ?until:(Explorer.sup_result -> bool) -> Ta.Model.network ->
  trigger:string -> response:string -> ceiling:int -> Explorer.sup_outcome

(** The [Sup_delay] result of a sup search: [Sup] when it finished,
    [Unknown] with the partial sup when it was interrupted. *)
val result_of_sup : Explorer.sup_outcome -> result

(** [bounded_of_sup o ~bound] decides the requirement [P(bound)] from a
    [Sup_delay] outcome searched with [ceiling = bound]: [Holds] when the
    sup is at most [bound] (or the trigger never fires), [Fails None]
    when it exceeds it — also from an interrupted search's partial sup,
    which only grows — and the interruption's [Unknown] otherwise.
    Other outcomes are returned unchanged. *)
val bounded_of_sup : outcome -> bound:int -> outcome

val pp_outcome : Format.formatter -> outcome -> unit

(** Compile a predicate against an explorer for direct use with
    {!Explorer.reachable} or {!Explorer.timed_trace}.
    @raise Not_found on unknown names. *)
val compile_pred : Explorer.t -> pred -> Explorer.state -> bool

(** The reserved clock name of the delay monitor {!max_delay} composes
    for the timed queries — exposed so tests and benchmarks that drive
    {!Explorer} directly build a monitor with the identical
    fingerprint. *)
val delay_monitor_clock : string
