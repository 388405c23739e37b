(** The admission-control plane of the network serve loop: a bounded
    multi-producer / multi-consumer request queue with
    shed-on-overload.

    The event loop {!try_push}es each admitted request; worker domains
    {!pop} in FIFO order.  A full queue never blocks the producer —
    {!try_push} returns [false] immediately and the caller answers the
    client with a diagnosed "busy" response (the 429 of the wire
    protocol).  The shed count is exported to the metrics surface.

    Domain-safe (mutex + condition); {!pop} blocks until an item
    arrives or the queue is closed and drained. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** [capacity] is clamped to at least 1. *)

val capacity : 'a t -> int

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed — the request must be
    shed.  Never blocks. *)

val pop : 'a t -> 'a option
(** Blocks until an item is available.  After {!close}, keeps
    returning the already-admitted items, then [None] once empty — the
    consumer's signal to exit. *)

val close : 'a t -> unit
(** Stop admitting; wake every blocked consumer.  Already-queued items
    remain poppable so a graceful drain can answer them. *)

val depth : 'a t -> int

val shed : 'a t -> int
(** Requests refused by {!try_push} so far. *)
