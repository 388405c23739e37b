(** The process's helper domains and a bounded map over them.

    A helper is spawned on first demand, runs one job at a time and
    waits between jobs; it is never joined, and a process holding
    parked helpers still exits.  At most {!cap} helpers stay parked: a
    helper that finishes while the park is full exits, and a parked
    helper that has had no job for {!idle_s} seconds exits too. *)

(** [map ~jobs f items] maps [f] over [items] on [jobs] domains — the
    caller's and [jobs - 1] helpers — with [jobs] clamped to
    {!recommended_jobs} and to the item count ([jobs <= 1] is a plain
    [List.map]).  Results keep list order.  If any [f] raises, the
    other domains stop claiming items and the first exception is
    re-raised on the caller's domain with its backtrace. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [fork_join jobs main] runs each of [jobs] on its own helper domain —
    a parked one if any, else a new one — and [main] on the caller,
    then waits until every job and [main] have returned.  It does not
    clamp: each job gets a domain.  The latch it waits on is a mutex,
    so every helper's writes happen before [fork_join] returns, as
    after a [Domain.join].  The first exception to arrive, from [main]
    or a job, is re-raised with its backtrace.  Helpers are acquired
    all or nothing: if one cannot be spawned, the others go back to the
    park and the spawn's exception is raised before any job or [main]
    runs. *)
val fork_join : (unit -> unit) array -> (unit -> unit) -> unit

(** [Domain.recommended_domain_count ()]: the number of domains this
    host can run in parallel.  {!map} clamps to it, and so does the CLI's
    [--jobs]: more domains than cores only adds contention. *)
val recommended_jobs : unit -> int

(** [recommended_jobs () - 1] (at least 0): the most helpers that stay
    parked.  Each parked helper takes part, through its backup thread,
    in every stop-the-world collection of the process, so more than the
    cores left beside the caller would slow the rest of the process. *)
val cap : int

(** How long, in seconds, a parked helper waits for a job before it
    exits (1 s).  A process that stops mapping thus stops paying the
    collection cost of {!cap}. *)
val idle_s : float

(** The number of helpers parked now. *)
val parked : unit -> int
