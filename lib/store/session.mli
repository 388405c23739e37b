(** Persisted incremental-verification sessions.

    A session remembers, for one (model tag, query) pair, what the
    previous successful run saw: the canonical network text, its
    {!Keys.Key.manifest} and the v1 result key the answer was stored under.
    Sessions live beside the result entries in the same {!Disk} store
    directory:

    - [<hex>.psvs] — framed canonical JSON (magic ["PSVSESS1"], payload
      digest and length lines exactly like the entry format), holding
      schema, tag, query, network text, result key and manifest;
    - [<hex>.psvg] — framed binary blob (magic ["PSVGRAPH1"], digest
      and length lines, then an opaque payload): the zone graph older
      builds recorded for their delta rung.  This build never writes
      one, but still digest-checks and collects those it finds.

    Both are {!Keys.Frame} files, and every read, write, listing and
    removal goes through {!Disk} ({!Disk.read_framed},
    {!Disk.write_framed}, {!Disk.files}, {!Disk.remove_file}), so
    sessions share the entries' tmp-file-plus-rename publish, fault
    plane and retry policy: a store whose I/O fails loses its sessions
    with its entries.

    Sessions are best-effort by design: a missing or corrupt session
    file merely costs a full re-exploration, never a wrong answer. *)

type t = {
  ss_tag : string;      (** model identity: a file path, or ["gpca:<prop>"] *)
  ss_query : string;    (** canonical query text *)
  ss_net : string;      (** canonical {!Xta.Print} text of the network *)
  ss_result_key : Keys.D128.t;  (** v1 key of the stored result entry *)
  ss_manifest : Keys.Key.manifest;
}

(** Deterministic session file key for a (tag, query) pair. *)
val session_key : tag:string -> query:string -> Keys.D128.t

val save : Disk.t -> t -> unit

(** [load disk key] is [Ok s] for a well-formed session file, [Error
    reason] when the file is corrupt, and [Error "no session"] when
    absent. *)
val load : Disk.t -> Keys.D128.t -> (t, string) result

(** The graph blob rides under the same key in a separate [.psvg]
    file; [save_graph] overwrites, [load_graph] is [None] when absent
    or corrupt.  Kept only because the edit-loop benchmark driver
    restores graphs between ops; the library no longer calls either. *)
val save_graph : Disk.t -> Keys.D128.t -> string -> unit

val load_graph : Disk.t -> Keys.D128.t -> string option

(** Session-file names ([.psvs]) present in the store, sorted. *)
val list : Disk.t -> string list

type fsck = {
  sk_ok : int;        (** well-formed sessions with verified manifests *)
  sk_bad : (string * string) list;  (** file name, problem *)
  sk_graphs : int;    (** well-formed graph blobs *)
}

(** Re-parses each session's network text, recomputes its
    {!Keys.Key.manifest} and compares digest-per-automaton against the
    stored manifest; also digest-checks every graph blob. *)
val fsck : Disk.t -> fsck

(** Removes corrupt session and graph files; returns count removed. *)
val gc : Disk.t -> int
