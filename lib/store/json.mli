(** A minimal JSON value type, parser and printer.

    The container ships no JSON library, and the store needs only a
    small, deterministic subset: entry payloads on disk and the
    [psv serve] request/response protocol.  The printer is canonical
    (no whitespace, object fields in the order given), so re-encoding a
    decoded value of the same shape is byte-stable — which is what lets
    a warm [check --cache --json] run reproduce a cold run's output
    byte for byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [parse text] parses one JSON document (trailing whitespace allowed,
    trailing garbage rejected).  Numbers without [./e/E] become [Int];
    others [Float].  Errors carry a character offset. *)
val parse : string -> (t, string) result

(** Compact canonical rendering.  A finite [Float] always carries a
    fraction or an exponent ([48.0], not [48]), so it parses back as the
    same [Float].  Non-finite floats render as [null] (JSON has no
    representation for them). *)
val to_string : t -> string

(** [member name obj] is the value of field [name], [None] when absent
    or when the value is not an object. *)
val member : string -> t -> t option

(** Coercions; [None] on shape mismatch.  [to_float] accepts [Int]. *)

val to_int : t -> int option
val to_float : t -> float option
val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
