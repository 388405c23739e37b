(** 128-bit structural digests.

    The key primitive of the persistent result store: a strong,
    process-independent digest over structured data.  A single OCaml
    [int] hash (as the explorer's snapshot fingerprint once was) is far
    too collision-prone to key a cache that outlives the process — with
    62 usable bits, a store of a few million entries has a real chance
    of a silent cross-model collision; at 128 bits the chance is
    negligible at any plausible store size.

    The digest is {e not} cryptographic: it defends against accidental
    collisions and bit rot, not adversaries.  It is deterministic across
    runs, platforms and OCaml versions (its input is explicit bytes and
    integers, never [Hashtbl.hash]), which is what lets one store serve
    many processes over time.

    It is also the payload digest of every {!Frame}d file, and an
    explorer checkpoint runs to megabytes, so the fold is written for
    throughput: each string or integer atom runs over two unboxed local
    lanes and touches the builder once, allocating nothing per byte.
    The output is fixed — golden vectors in the test suite pin it,
    since changing a single bit would orphan every persisted entry,
    session and snapshot. *)

type t = { hi : int64; lo : int64 }

val equal : t -> t -> bool
val compare : t -> t -> int

(** 32 lowercase hex characters. *)
val to_hex : t -> string

(** Inverse of {!to_hex}; [None] unless the input is exactly 32 hex
    characters. *)
val of_hex : string -> t option

val pp : Format.formatter -> t -> unit

(** {1 Incremental construction}

    A builder folds a stream of typed atoms into the digest.  Strings
    and arrays are length-prefixed, so adjacent fields cannot alias
    (["ab","c"] and ["a","bc"] digest differently). *)

type builder

val builder : unit -> builder

(** An independent builder in [st]'s state: atoms added to either one
    later do not reach the other. *)
val copy : builder -> builder

val add_int : builder -> int -> unit
val add_int64 : builder -> int64 -> unit
val add_bool : builder -> bool -> unit
val add_char : builder -> char -> unit
val add_string : builder -> string -> unit
val add_int_array : builder -> int array -> unit

(** Finalize.  The builder may keep accumulating afterwards; [value]
    reflects everything added so far. *)
val value : builder -> t

(** One-shot digest of a string. *)
val of_string : string -> t
