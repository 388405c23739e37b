(** Zigzag varints, the integer codec of explorer checkpoints: small
    values of either sign take one byte, [max_int] nine.  Strings and
    arrays carry their length first. *)

val add_int : Buffer.t -> int -> unit
val add_string : Buffer.t -> string -> unit
val add_ints : Buffer.t -> int array -> unit

(** A cursor over encoded bytes.  A read raises {!Malformed} on bytes no
    writer above produced, and never reads past the end. *)
type reader

exception Malformed of string

val reader : string -> reader
val at_end : reader -> bool
val int : reader -> int

(** A count of items still to read: at most the bytes left, so a forged
    count cannot make a caller allocate more than the input holds. *)
val length : reader -> int

val string : reader -> string
val ints : reader -> int array
