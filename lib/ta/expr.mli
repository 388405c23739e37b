(** Integer expressions and boolean predicates over bounded integer
    variables.  This is the data (non-clock) part of guards and updates in
    the UPPAAL-style modeling language. *)

type t =
  | Int of int
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t

type rel = Lt | Le | Eq | Ge | Gt | Ne

type pred =
  | True
  | False
  | Cmp of t * rel * t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

(** {1 Constructors} *)

val int : int -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t

val eq : t -> t -> pred
val ne : t -> t -> pred
val lt : t -> t -> pred
val le : t -> t -> pred
val gt : t -> t -> pred
val ge : t -> t -> pred
val conj : pred list -> pred

(** [var_eq x n] is the common guard [x == n] on variable [x]. *)
val var_eq : string -> int -> pred

(** {1 Inspection} *)

(** Free variables of an expression, without duplicates. *)
val vars_of_expr : t -> string list

(** Free variables of a predicate, without duplicates. *)
val vars_of_pred : pred -> string list

(** {1 Evaluation} *)

(** [eval_expr env e] evaluates [e]; [env] maps variable names to values and
    must be total on the free variables of [e]. *)
val eval_expr : (string -> int) -> t -> int

val eval_pred : (string -> int) -> pred -> bool

(** {1 Compilation}

    Compiling resolves variable names to integer indices once, returning a
    closure evaluated against an [int array] valuation.  [index] must raise
    [Not_found] only for genuinely unknown names. *)

val compile_expr : index:(string -> int) -> t -> int array -> int
val compile_pred : index:(string -> int) -> pred -> int array -> bool

(** {1 Printing}

    The writers append the canonical text that {!Xta.Print} embeds in
    guards and updates: fully parenthesised binary operators, negative
    literals as ["(-7)"].  The [pp_*] functions print the same text
    through [Format], for diagnostics. *)

val write_expr : Buffer.t -> t -> unit
val write_pred : Buffer.t -> pred -> unit

val pp_expr : Format.formatter -> t -> unit
val pp_rel : Format.formatter -> rel -> unit
val pp_pred : Format.formatter -> pred -> unit
