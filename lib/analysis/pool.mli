(** A bounded domain pool over a work list. *)

(** [map ~jobs f items] maps [f] over [items] on [jobs] domains — the
    caller's and [jobs - 1] helpers from {!Mc.Park} (clamped to the item
    count; [jobs <= 1] is a plain [List.map]).  Results keep list order.
    If any [f] raises, the pool drains and the first exception is
    re-raised on the caller's domain. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
