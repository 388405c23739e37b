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

(** [parse text] parses a query.  Errors mention the offending token. *)
val parse : string -> (t, string) Stdlib.result

(** Canonical text form: [parse (to_string q) = Ok q], and two queries
    print equal iff their trees are equal (binary predicate nodes are
    fully parenthesized).  This is the query contribution to the result
    store's cache key. *)
val to_string : t -> string

(** [eval net q] builds the needed explorer (with a delay monitor for the
    timed queries) and evaluates under the optional [ctl] govern token.
    [jobs] (default 1) selects the number of exploration domains — same
    outcome, order-dependent statistics at [jobs > 1] (see {!Explorer}).
    @raise Ta.Compiled.Compile_error on an
    invalid network, [Not_found] if the query names an unknown process,
    location or variable. *)
val eval :
  ?jobs:int -> ?ctl:Runctl.t -> ?limit:int -> Ta.Model.network -> t -> result

val pp_outcome : Format.formatter -> outcome -> unit

(** Compile a predicate against an explorer for direct use with
    {!Explorer.reachable} or {!Explorer.timed_trace}.
    @raise Not_found on unknown names. *)
val compile_pred : Explorer.t -> pred -> Explorer.state -> bool

(** The reserved clock name of the delay monitor {!eval} composes for
    the timed queries — exposed so an alternative evaluation engine
    (the incremental explorer) builds a monitor with the identical
    fingerprint. *)
val delay_monitor_clock : string
