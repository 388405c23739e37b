(** A small bounded least-recently-used cache.

    Built for the serve loop's memoized model parses: a long-lived
    [psv serve] process must not grow its parse cache without limit as
    clients name ever more model files, so the memo table is bounded and
    evicts the stalest entry on overflow.

    Domain-safe: a mutex guards the table, and {!find_or_add} computes
    missing values {e outside} the lock so one slow parse never blocks
    concurrent lookups (two racing misses may both compute; one insert
    wins, which is harmless for a pure loader). *)

type ('k, 'v) t

val create : capacity:int -> unit -> ('k, 'v) t
(** [capacity] is clamped to at least 1. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** [find_or_add t k f] is the cached value, or [f k] computed (outside
    the lock), inserted and returned. *)
