(** The live observability surface of the serve loops: request
    counters plus a fixed-size ring of recent request latencies, from
    which the [stats] wire frame reports p50/p90/p99.

    All counters are atomic and the ring is mutex-guarded, so worker
    domains record while the event loop snapshots.  The ring keeps the
    most recent 1024 latencies: percentiles describe
    current behaviour, not the whole process lifetime, which is what an
    operator watching an overload wants. *)

type t

val create : ?now:(unit -> float) -> unit -> t
(** [now] is injectable for deterministic tests. *)

val incr_received : t -> unit
val incr_answered : t -> unit
val incr_errors : t -> unit
val incr_busy : t -> unit

val answered : t -> int
val errors : t -> int

val record : t -> float -> unit
(** Record one request latency in milliseconds. *)

(** Point-in-time values owned by the host (the network event loop):
    queue state from {!Admission}, connection counts. *)
type gauges = {
  g_queue_depth : int;
  g_queue_capacity : int;
  g_shed : int;
  g_conns_active : int;
  g_conns_total : int;
}

val to_json : t -> ?cache:Qcache.t -> ?gauges:gauges -> unit -> Store.Json.t
(** The payload of a [stats] response frame: [uptime_s], [requests]
    counters, [latency_ms] percentiles, plus [queue]/[connections]
    when [gauges] is given and the cache counters + breaker state
    ({!Qcache.stats_json}) when [cache] is given. *)
