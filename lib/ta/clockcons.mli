(** Clock constraints: the atomic comparisons allowed in guards and
    invariants of timed automata.  Constants are integers, as in UPPAAL. *)

type rel = Lt | Le | Eq | Ge | Gt

(** An atomic constraint over clock names. *)
type atom =
  | Simple of string * rel * int         (** [x ~ n] *)
  | Diff of string * string * rel * int  (** [x - y ~ n] *)

(** A conjunction of atoms.  The empty list is [true]. *)
type t = atom list

val tt : t

(** The largest constant a clock may be compared against, [2{^32}]
    (about 50 days in milliseconds).  {!Model.validate} refuses guards
    and invariants past it in magnitude, [Compiled.compile] refuses
    clock ceilings past it, and the query parser and the command line
    refuse query ceilings and bounds past it.

    Why no zone computation overflows below it.  [Zone.Bound] encodes
    [x - y ~ c] in one 63-bit int as [2c] or [2c + 1], and adding two
    bounds adds their encodings, so every constant a DBM operation
    forms must stay below [2{^60}] in magnitude.  The explorer
    extrapolates every zone it stores, which leaves each finite bound
    within its clock's constant, at most [max_constant]; one successor
    step meets such a zone with constants no larger, so the sums that
    canonicalisation forms stay within a few [max_constant].  The exact
    replay of a witness chain ([Mc.Explorer.timed_trace]) does not
    extrapolate, and each step moves a bound by at most one constant,
    so after [k] steps bounds stay within [(k + 2) * max_constant]:
    below [2{^60}] for any chain shorter than [2{^27}] steps, more
    states than a search can hold. *)
val max_constant : int

(** [check_constant what n] is [Ok n] when [n <= max_constant], and
    otherwise an error message that names [what] (e.g. ["ceiling"]). *)
val check_constant : string -> int -> (int, string) result

val lt : string -> int -> atom
val le : string -> int -> atom
val eq_ : string -> int -> atom
val ge : string -> int -> atom
val gt : string -> int -> atom

(** Clock names appearing in a conjunction, without duplicates. *)
val clocks : t -> string list

(** Largest constant compared against each clock, as an association list.
    Used for zone extrapolation. *)
val max_consts : t -> (string * int) list

(** [sat values atoms] evaluates the conjunction on a concrete valuation.
    Used by the discrete-time simulator and by tests that cross-check the
    symbolic semantics. *)
val sat : (string -> int) -> t -> bool

(** {1 Printing}

    [write b atoms] appends the canonical text of a conjunction
    (["x <= 5 && x - y < 3"], ["true"] when empty) that {!Xta.Print}
    embeds in guards and invariants.  [pp_atom] and [pp] print the same
    text through [Format], for diagnostics. *)

val write : Buffer.t -> t -> unit
val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> t -> unit
