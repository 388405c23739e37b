(** The incremental re-verification session: the decision ladder.

    A session answers "re-verify query [q] on the current network"
    through three rungs, cheapest first, with the hard invariant that
    every rung returns the verdict a from-scratch sequential run would:

    + {b store} — the exact v1 key hits a reusable cache entry
      (byte-identical network; the pre-existing PR 4 path);
    + {b cone} — the network changed, but {!Cone.check} proves the
      change invisible to this query, so the previous result is
      returned and republished under the new key;
    + {b full} — a plain sequential {!Mc.Query.eval} recomputes from
      scratch.

    The previous run's network and result are kept in memory (per
    query) and, when a cache is attached, persisted beside the store
    entries as a [PSVSESS1] session file ({!Store.Session}), so a new
    process resumes the ladder where the last one left it.  Each
    {!outcome} names the rung that answered; front ends reach the
    ladder through {!Answer}.  Persistence is strictly best-effort — a
    missing or corrupt session costs a full run, never an answer. *)

(** [Delta] is never produced; it stays only because benchmark drivers
    outside the library still match on it — as do
    {!Analysis.Qcache.outcome_to_entry} and
    {!Analysis.Qcache.stats_to_entry}, identities since store entries
    hold the checker's own result types. *)
type rung = Store_hit | Cone_hit | Delta | Full

val rung_name : rung -> string

type outcome = {
  so_result : Mc.Query.result;
  so_rung : rung;
  so_replayed : int;
      (** always [0]; kept only for benchmark drivers that still read it *)
  so_expanded : int;  (** full rung: the run's visited states *)
  so_answer_ms : float;
      (** wall time of the answering exploration alone — the
          re-verification latency.  Excludes session persistence, which
          happens after the verdict is available.  [0.] on the store
          and cone rungs. *)
}

type t

(** [make ?cache ~tag ()] opens a session.  [tag] identifies the model
    source (a file path, or ["gpca:<property>"]) and keys the persisted
    session together with each query's canonical text.  Without a
    [cache] the ladder runs purely in memory: no store rung, no
    persistence — which is all [psv watch] needs within one process. *)
val make : ?cache:Analysis.Qcache.t -> tag:string -> unit -> t

(** One run of the ladder.  Sequential ([jobs = 1]) by construction, so
    a stored full-rung entry equals [psv verify --jobs 1] byte for byte.
    @raise Ta.Compiled.Compile_error / [Not_found] as {!Mc.Query.eval}. *)
val run :
  ?ctl:Mc.Runctl.t -> ?limit:int -> t -> Ta.Model.network -> Mc.Query.t ->
  outcome
