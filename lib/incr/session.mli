(** The incremental re-verification session: the decision ladder.

    A session answers "re-verify query [q] on the current network"
    through four rungs, cheapest first, with the hard invariant that
    every rung returns the verdict a from-scratch sequential run would:

    + {b store} — the exact v1 key hits a reusable cache entry
      (byte-identical network; the pre-existing PR 4 path);
    + {b cone} — the network changed, but {!Cone.check} proves the
      change invisible to this query, so the previous result is
      returned and republished under the new key;
    + {b delta} — {!Delta.replay} re-explores, re-admitting recorded
      expansions where the edit left them untouched;
    + {b full} — {!Delta.record} recomputes from scratch (and records
      a fresh graph for next time).

    The previous run's network, result and expansion graph are kept in
    memory (per query) and, when a cache is attached, persisted beside
    the store entries ({!Store.Session}), so a new process resumes the
    ladder where the last one left it.  Rung counters feed
    {!Analysis.Qcache.note_rung} and surface in cache stats and serve
    stats frames.  Persistence is strictly best-effort — a missing or
    corrupt session costs a full run, never an answer.  A resumed
    session reads its graph blob (megabytes on zone-dense models) only
    when the delta rung is about to replay it: store and cone hits never
    touch it, so a missing or corrupt graph costs only the replay. *)

type rung = Store_hit | Cone_hit | Delta | Full

val rung_name : rung -> string

type outcome = {
  so_result : Mc.Query.result;
  so_rung : rung;
  so_replayed : int;  (** delta rung: expansions answered from the graph *)
  so_expanded : int;  (** delta/full rungs: expansions fired for real *)
  so_answer_ms : float;
      (** wall time of the answering exploration (record or replay)
          alone — the re-verification latency.  Excludes session
          bookkeeping: graph encoding and persistence happen after the
          verdict is available and overlap the caller's idle time in a
          watch loop.  [0.] on the store and cone rungs. *)
}

type t

(** [make ?cache ~tag ()] opens a session.  [tag] identifies the model
    source (a file path, or ["gpca:<property>"]) and keys the persisted
    session together with each query's canonical text.  Without a
    [cache] the ladder runs purely in memory: no store rung, no
    persistence — which is all [psv watch] needs within one process. *)
val make : ?cache:Analysis.Qcache.t -> tag:string -> unit -> t

(** One run of the ladder.  Sequential ([jobs = 1]) by construction —
    delta replay is a sequential-order memo.
    @raise Ta.Compiled.Compile_error / [Not_found] as {!Mc.Query.eval}. *)
val run :
  ?ctl:Mc.Runctl.t -> ?limit:int -> t -> Ta.Model.network -> Mc.Query.t ->
  outcome
