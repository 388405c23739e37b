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
