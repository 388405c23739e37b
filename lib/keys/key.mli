(** Canonical cache keys.

    The key identifies everything that determines a verification result:
    the network and the query (cached evaluations always run the
    explorer's default configuration).  It deliberately excludes run
    budgets — those govern {e whether} the run finishes, not what the
    answer is — so a result computed under one budget can answer
    requests made under another (see {!Entry.reusable}).

    The network contribution is a digest of its {!Xta.Print} text.  The
    printer is canonical (parse-then-print is a fixpoint), so a model
    loaded from [.xta] text and the same model printed and re-parsed
    produce identical keys, while any semantic edit — a renamed clock, a
    changed bound, a reordered edge — changes the text and hence the
    key. *)

(** Digest of the printed network text alone, under the key-schema
    prefix.  This is also the explorer's snapshot fingerprint
    ingredient. *)
val network_digest : Ta.Model.network -> D128.t

(** [digest ~query net] is the full cache key.  [query] must be
    canonical query text ([Mc.Query.to_string]).  After the query the
    key hashes three [true] bytes.  They are psv-key-v1 schema
    constants, kept so existing keys do not move; they are not the
    explorer's configuration (whose defaults differ) and nothing sets
    them.

    Each domain keeps the digest state after the printed network of the
    last network it keyed, by physical identity, so asking several
    queries of one network value prints it once.  The bytes digested,
    and so the keys, are those of a fresh computation. *)
val digest : query:string -> Ta.Model.network -> D128.t

(** {1 psv-key-v2: per-automaton manifests}

    The v1 key digests the whole printed network, so any edit moves
    every key.  The v2 manifest splits the network into independently
    digested parts — the global declarations (clocks, variables,
    channels) and one digest per automaton — so the incremental layer
    ({!Incr.Cone}) can tell {e which} automata an edit touched and
    reuse results whose cone of influence avoids them.  v1 result keys
    are unchanged: the manifest rides alongside, it does not replace
    them. *)

type manifest = {
  mf_decls : D128.t;
      (** digest of net name, clocks, variable declarations (name,
          init, min, max) and channel declarations (name, kind) *)
  mf_automata : (string * D128.t) list;
      (** per-automaton digests over the canonical
          {!Ta.Model.pp_automaton} text, in declaration order *)
}

(** [manifest net] computes the per-part digests under the
    ["psv-key-v2"] schema. *)
val manifest : Ta.Model.network -> manifest

(** Single digest summarising a whole manifest (used by session
    fingerprints and fsck). *)
val manifest_digest : manifest -> D128.t

val manifest_equal : manifest -> manifest -> bool
