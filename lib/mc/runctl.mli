(** Run governance for long verification runs.

    A {!t} is a cooperative cancellation token with optional resource
    budgets.  The explorer polls it between state expansions; when a
    budget is exhausted (or {!cancel} has been called) the search stops
    cleanly and reports an {!reason} instead of raising, so partial
    statistics — and a resumable snapshot — survive the interruption.

    Budgets are deliberately approximate: wall-clock and live-memory are
    sampled every few hundred expansions (a [gettimeofday] or
    [Gc.quick_stat] per state would dominate small models), so a run may
    overshoot a budget by one sampling interval.  The visited-state
    budget is exact.

    {b Domain-safety.}  One token may be shared by every domain of a
    partitioned search ({!Explorer.search} at [jobs > 1]) and by a SIGINT handler, so the
    mutable state ([cancelled], the sampling tick counter) lives in
    [Atomic.t] cells.  The OCaml 5 memory model gives plain mutable
    fields no publication guarantee between domains — a worker polling a
    plain [mutable bool] written by another domain may read a stale
    value indefinitely, making cancellation unsound.  [Atomic] operations
    are sequentially consistent: once {!cancel} returns, every later
    {!check} on any domain observes it.  The tick counter uses
    [fetch_and_add], so the expensive clock/heap sampling interval is
    global across workers rather than multiplied by the worker count.
    [check] itself never blocks and takes no locks, so workers can poll
    it on their hot path. *)

(** Why a search stopped short of a definitive answer. *)
type reason =
  | Time_budget of float   (** wall-clock budget, in seconds *)
  | State_budget of int    (** visited-state budget *)
  | Memory_budget of int   (** live-heap budget, in bytes *)
  | Cancelled              (** {!cancel} was called (e.g. SIGINT) *)
  | Crash of string
      (** a worker domain raised; the search was downgraded instead of
          killing the process — diagnostic (with backtrace) attached *)

type budget = {
  b_time_s : float option;     (** wall-clock seconds from {!create} *)
  b_states : int option;       (** visited (expanded) states *)
  b_mem_bytes : int option;    (** live major-heap bytes ([Gc.quick_stat]) *)
}

val no_budget : budget

type t

(** [create ?budget ()] starts the wall clock now. *)
val create : ?budget:budget -> unit -> t

(** The budget the token was created with. *)
val budget : t -> budget

(** [sibling t] is a fresh token with [t]'s budget whose wall clock
    starts now, sharing [t]'s cancellation: cancelling any token of the
    family cancels them all, those made later included.  A batch makes
    one per query as that query starts, so a query queued behind others
    still gets its whole time budget, and one {!install_sigint} on the
    root cancels the batch. *)
val sibling : t -> t

(** Request cancellation; the next poll observes it.  Idempotent and
    safe to call from a signal handler. *)
val cancel : t -> unit

val cancelled : t -> bool

(** [check t ~visited] polls the token: [Some reason] when the run must
    stop.  Cheap (a few comparisons) except every 256th call, which
    samples the clock and the heap.  The first call always samples. *)
val check : t -> visited:int -> reason option

(** [check_striped t ~visited ~tick] is {!check} with the clock/heap
    sampling driven by a caller-supplied tick counter instead of the
    shared one: a parallel worker passes its worker-local expansion
    count, so the hot path costs one atomic read (the cancel flag) and
    no read-modify-write on a cache line shared by every worker.  The
    sampling mask is tighter (every 64th tick) since each worker ticks
    at roughly 1/jobs the fleet's rate; [tick = 0] samples, so a run
    already over budget stops before its first expansion. *)
val check_striped : t -> visited:int -> tick:int -> reason option

(** Install a SIGINT handler that cancels [t].  A second SIGINT restores
    the default behavior (terminate), so a wedged run can still be
    killed.  No-op on platforms without [Sys.sigint] handling. *)
val install_sigint : t -> unit

(** [parse_duration s] parses ["250ms"], ["2s"], ["1.5s"], ["3m"],
    ["1h"], or a bare number of seconds, into seconds. *)
val parse_duration : string -> (float, string) result

val pp_reason : Format.formatter -> reason -> unit

(** Short machine-readable tag: ["time-budget"], ["state-budget"],
    ["memory-budget"], ["cancelled"] or ["crash"]. *)
val reason_tag : reason -> string
