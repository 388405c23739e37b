(** The framing every persisted file carries: store entries
    ([PSVSTORE1]), sessions ([PSVSESS1]), the graph blobs older builds
    wrote ([PSVGRAPH1]) and explorer checkpoints ([PSVSNAP4]).

    {v
<magic>\n
<32-hex D128 digest of the payload>\n
<payload byte length, decimal>\n
<payload>
    v}

    {!unframe} checks the magic, the length and the digest before it
    hands the payload out, so truncation and bit rot surface as an
    [Error] before any decoder — JSON or {!Varint} — reads a byte.  The
    digest guards against accidents, not forgery: {!D128} is not
    cryptographic. *)

(** [frame ~magic payload] is the header followed by [payload]. *)
val frame : magic:string -> string -> string

type error =
  | Foreign  (** the bytes do not start with [magic]'s family *)
  | Version of string
      (** the same family under another version: the tag found, e.g.
          ["PSVSNAP3"] when [magic] is ["PSVSNAP4"] *)
  | Corrupt of string  (** right magic; bad header, length or digest *)

(** [unframe ~magic raw] is the payload of a framed file.  The magic is
    compared as a prefix before any line is split, so a file of another
    version is named by its tag even when what follows it is binary.  A
    magic's family is the magic without its trailing digits. *)
val unframe : magic:string -> string -> (string, error) result
