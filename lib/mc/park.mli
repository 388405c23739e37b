(** A process-wide pool of parked helper domains.

    A helper is spawned on first demand, runs one job at a time and
    sleeps between jobs; it is never joined, and a process holding
    parked helpers still exits.  At most {!cap} helpers stay parked: a
    helper that finishes while the park is full exits. *)

(** [fork_join jobs main] runs each of [jobs] on its own helper domain —
    a parked one if any, else a new one — and [main] on the caller,
    then waits until every job has returned.  The latch it waits on is
    a mutex, so every helper's writes happen before [fork_join] returns,
    as after a [Domain.join].  If [main] raised, that exception is
    re-raised; else the first job exception to arrive is.  Helpers are
    acquired all or nothing: if one cannot be spawned, the others go
    back to the park and the spawn's exception is raised before any job
    or [main] runs. *)
val fork_join : (unit -> unit) array -> (unit -> unit) -> unit

(** [Domain.recommended_domain_count () - 1] (at least 0): the most
    helpers that stay parked.  Each parked helper takes part, through its
    backup thread, in every stop-the-world collection of the process, so
    more than the cores left beside the caller would slow the rest of
    the process. *)
val cap : int

(** The number of helpers parked now. *)
val parked : unit -> int
