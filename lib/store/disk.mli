(** The durable on-disk result store.

    A store is one directory holding a recognition marker ([PSVSTORE])
    and framed files ({!Keys.Frame}), one kind per suffix:

    - [<32-hex-key>.psve] — a result entry: magic [PSVSTORE1], payload
      canonical JSON ({!Entry.to_json});
    - [<32-hex-key>.psvs] — an incremental-verification session
      ({!Session}), magic [PSVSESS1];
    - [<32-hex-key>.psvg] — a zone-graph blob older builds wrote beside
      their sessions, magic [PSVGRAPH1]; read and collected, never
      written.

    This module does all of the store's file I/O: entries through
    {!insert}/{!lookup}, other kinds through {!write_framed},
    {!read_framed}, {!files} and {!remove_file}, which share the
    publish protocol and the fault plane below.

    {b Crash safety.}  Writes go to a [.tmp.<pid>.<n>] file in the store
    directory and are published with an atomic rename — so readers and
    concurrent [--jobs] writers only ever observe absent or complete
    files, never partial ones.  Two writers racing on the same key both
    publish a complete entry; last rename wins and either answer is
    valid for the key.  A writer killed between write and rename leaves
    an orphan temp file; {!gc} removes temp files whose owning pid is
    dead, and {!fsck} reports them.

    {b Fault plane.}  All host I/O goes through an injectable
    {!Fault.Io.t} wrapped in a {!Fault.Retry} policy: transient faults
    ([EIO]/[EAGAIN]/...) are retried with exponential backoff; what
    escapes surfaces as {!Unavailable} so the cache layer's circuit
    breaker can trip into degraded mode.  Production callers use the
    defaults ({!Fault.Io.real}, {!Fault.Retry.default}); chaos tests
    inject seeded fault schedules.

    {b Corruption tolerance.}  The length and digest lines are verified
    {e before} the payload is decoded; a truncated, garbled or
    version-bumped file is reported as {!Corrupt} (and skipped with a
    warning by [fold]), never an exception. *)

type t

val dir : t -> string

(** [open_ ?io ?retry ?create dir] opens (by default creating) a store
    at [dir].  [Error] if the directory exists but is not a recognized
    store, or — with [create:false] — if it does not exist
    ([create:false] is the guard behind [psv cache gc]).  [io]
    (default {!Fault.Io.real}) and [retry] (default
    {!Fault.Retry.default}) configure the host fault plane. *)
val open_ :
  ?io:Fault.Io.t ->
  ?retry:Fault.Retry.policy ->
  ?create:bool ->
  string ->
  (t, string) result

type 'a read =
  | Hit of 'a
  | Miss  (** no such file, or it was removed while being read *)
  | Corrupt of string  (** file readable but content bad; reason attached *)
  | Unavailable of string
      (** host I/O failed even after retries — the store is sick, the
          file may well be fine; feeds the cache circuit breaker *)

type lookup = Entry.t read

(** [lookup t key] reads the entry file of [key] once, through the
    fault plane.  Each domain remembers, for up to a fixed number of
    entry files, the bytes a lookup last decoded and the entry decoded
    from them; when the bytes just read are identical, that entry is
    returned without checking the frame or decoding the JSON again.
    Decoding is a pure function of the bytes, so the answer is the one
    a fresh decode gives: a replaced, truncated or removed file is
    judged exactly as without the memo.  A file removed while it is
    being read is a [Miss], not retried and not [Unavailable].  Only
    [lookup] uses the memo; {!fold}, {!stats}, {!gc}, {!fsck} and
    {!read_framed} decode fresh. *)
val lookup : t -> Keys.D128.t -> lookup

(** [insert t entry] durably publishes [entry] under its key,
    overwriting any previous entry for that key.  Raises (after
    exhausting the retry policy) if the host refuses; the temp file is
    cleaned up best-effort first. *)
val insert : t -> Entry.t -> unit

(** [remove t key] deletes the entry for [key] if present. *)
val remove : t -> Keys.D128.t -> unit

(** [write_framed t ~magic name payload] publishes [payload] framed
    under [magic] as the file [name] in the store directory, exactly as
    {!insert} publishes an entry.  Raises like {!insert}. *)
val write_framed : t -> magic:string -> string -> string -> unit

(** [read_framed t ~magic name] is the payload of the store file
    [name], checked against [magic], its length and its digest. *)
val read_framed : t -> magic:string -> string -> string read

(** Names of the store's files ending in [suffix], sorted. *)
val files : t -> suffix:string -> string list

(** [remove_file t name] deletes the store file [name]; [false] when the
    host refused. *)
val remove_file : t -> string -> bool

(** Folds over all well-formed entries; ill-formed files are passed to
    [warn] (default: a [Logs]-style line on stderr) and skipped. *)
val fold :
  ?warn:(string -> unit) -> t -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a

type stats = {
  st_entries : int;       (** well-formed entries *)
  st_corrupt : int;       (** unreadable [.psve] files *)
  st_bytes : int;         (** total size of well-formed entries only *)
  st_corrupt_bytes : int;
      (** bytes held by unreadable files — what [gc] would reclaim *)
}

val stats : t -> stats

(** [gc t] removes corrupt entry files and orphaned temp files (temp
    files whose owning pid is dead; live writers' temps are left
    alone); returns the number of files removed. *)
val gc : t -> int

type fsck_report = {
  fk_ok : int;
  fk_bad : (string * string) list;  (** file name, problem *)
  fk_tmp : string list;
      (** orphaned [.tmp.<pid>.<n>] files left by dead writers *)
}

(** Full verification pass: magic, digest, length, JSON shape, and that
    the key recorded in the payload matches the file name.  Orphaned
    temp files are reported in [fk_tmp] but do not make the store
    unclean ([fk_bad] alone decides that). *)
val fsck : t -> fsck_report
