(** The supervised batch query service behind [psv serve].

    One line-delimited JSON request per line — [{"id": .., "model":
    "M.xta", "query": ".."}] — a blank line (or EOF) flushes the batch:
    store hits answered instantly, misses fanned out over the domain
    pool, one JSON response line each, in request order.

    The loop is written against injectable [read_line]/[write_line]/
    [load_model] callbacks so the chaos tests drive it entirely
    in-process; the CLI supplies stdin/stdout and the filesystem.

    {b Supervision guarantees.}
    - A malformed, over-long, or invalid-UTF-8 request line yields a
      well-formed JSON error response, never a crash and never invalid
      UTF-8 output.
    - A worker exception during evaluation is confined to its request:
      the response is a JSON error object carrying the exception (and
      backtrace when the runtime recorded one); remaining requests are
      still answered.
    - A per-request deadline ([sv_request_timeout]) caps each
      evaluation's wall clock via the run-governance budget: an overrun
      is answered as a diagnosed [unknown]/[time-budget] outcome.
    - [sv_max_errors] is a trip wire: once more than that many error
      responses have been emitted, the loop finishes the current batch
      and stops ({!Error_limit}).
    - A {!drain} request (SIGTERM/SIGINT in the CLI) stops reading new
      input, cancels in-flight evaluations, and flushes what was
      already read — partial output is valid LDJSON. *)

type config = {
  sv_jobs : int;  (** domain-pool width for cache misses *)
  sv_budget : Mc.Runctl.budget;  (** per-request resource budget *)
  sv_request_timeout : float option;
      (** per-request wall-clock deadline, seconds; composes with
          [sv_budget.b_time_s] by [min] *)
  sv_max_errors : int option;  (** stop after this many error responses *)
  sv_max_request_bytes : int;  (** longest accepted request line *)
}

val default_config : config
(** 1 job, no budget, no timeout, no error limit, 1 MiB line cap. *)

(** Why the loop returned. *)
type stop =
  | Eof  (** input exhausted *)
  | Drained  (** a drain was requested; already-read requests answered *)
  | Error_limit  (** [sv_max_errors] exceeded *)

type outcome = {
  sv_served : int;  (** responses written, errors included *)
  sv_errors : int;  (** error responses among them *)
  sv_stop : stop;
}

(** {2 Graceful drain} *)

(** A drain token connects a signal handler (or a test) to the loop:
    requesting a drain stops further reads and cancels the in-flight
    evaluations' governance tokens.  All state is atomic — safe to
    trigger from a signal handler on any domain. *)
type drain

val drain : unit -> drain
val draining : drain -> bool

val request_drain : drain -> unit
(** Idempotent; safe from a signal handler. *)

(** {2 Input hygiene} *)

val utf8_valid : string -> bool

val fd_line_reader :
  config -> draining:(unit -> bool) -> Unix.file_descr -> unit -> string option
(** A [read_line] callback over a file descriptor that polls the drain
    flag every 0.1 s while waiting for input, so a drain request
    interrupts a blocking read.  [None] on EOF or drain.  A line longer
    than [sv_max_request_bytes] keeps its first [sv_max_request_bytes +
    1] bytes while the remainder is consumed and discarded — the
    over-long request is then rejected by the loop's line validation,
    with bounded memory and the same error document as {!Netserve}
    gives it. *)

(** {2 Wire protocol}

    The request/evaluate/render pipeline, shared between the batch loop
    ({!run}) and the socket listener ({!Netserve}) so both front ends
    render byte-identical response documents. *)

(** A validated cache-miss request, ready for a worker. *)
type run_item = {
  ri_id : Store.Json.t;
  ri_net : Ta.Model.network;
  ri_query : Mc.Query.t;
  ri_limit : int option;
  ri_key : Store.D128.t;
  ri_budget : Store.Entry.budget;
}

(** The outcome of parsing + cache lookup: an immediate error, a cache
    hit, a stats request, or work for the pool. *)
type prepared =
  [ `Err of Store.Json.t * string * string option
  | `Hit of Store.Json.t * Store.Entry.t
  | `Run of run_item
  | `Stats of Store.Json.t ]

(** A completed request, ready to render. *)
type reply =
  [ `Err of Store.Json.t * string * string option
  | `Hit of Store.Json.t * Store.Entry.t
  | `Ok of Store.Json.t * Mc.Query.result
  | `Stats of Store.Json.t ]

val prepare :
  config ->
  ?cache:Qcache.t ->
  load_model:(string -> (Ta.Model.network, string) result) ->
  string ->
  prepared
(** Validate, parse, resolve the model, parse the query, and consult
    the cache.  Never raises; every failure is an [`Err] with the id
    when one was recoverable. *)

val evaluate : config -> ?cache:Qcache.t -> ?drain:drain -> prepared -> reply
(** Run a [`Run] item under a fresh governance token (registered with
    [drain] for the duration); pass everything else through.  Worker
    exceptions are confined to the reply. *)

val reply_json :
  ?cache:Qcache.t ->
  ?stats_json:(unit -> Store.Json.t) ->
  reply ->
  Store.Json.t * bool
(** Render a reply document; [true] when it is an error response (for
    the [sv_max_errors] trip wire).  [stats_json] supplies the body of
    a [`Stats] reply; without it a minimal cache-only body is used. *)

val busy_json :
  ?cache:Qcache.t -> ?reason:string -> Store.Json.t -> Store.Json.t
(** The shed response: the admission queue was full (default [reason])
    and the request was refused, diagnosed immediately rather than
    left to hang. *)

(** {2 The loop} *)

val run :
  config ->
  ?cache:Qcache.t ->
  ?drain:drain ->
  load_model:(string -> (Ta.Model.network, string) result) ->
  read_line:(unit -> string option) ->
  write_line:(string -> unit) ->
  unit ->
  outcome
(** [run cfg ~load_model ~read_line ~write_line ()] serves until
    [read_line] returns [None], the drain token fires, or the error
    trip wire trips.  [write_line] receives one complete JSON document
    per call (no trailing newline).  When [cache] is degraded
    (breaker tripped), responses carry a ["degraded": true] field and
    the CLI maps the completion to its documented exit code. *)
