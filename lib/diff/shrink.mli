(** Deterministic counterexample shrinking.

    Given a network + query on which {!Oracle.core} reports a
    discrepancy of some check class, greedily search for a smaller
    network that still exhibits a discrepancy of the {e same} class:

    + enumerate candidate reductions in a fixed canonical order — drop
      an automaton, drop an edge, drop an invariant atom, drop a guard
      atom, clear a data guard, drop a reset, drop an update, halve or
      decrement a clock-constraint constant;
    + accept the first candidate that (a) still validates and (b) still
      reproduces the discrepancy, then restart the scan on the reduced
      network;
    + stop at the fixed point, then garbage-collect declarations
      (clocks / variables / channels no automaton references any more,
      keeping the query's own channels).

    Every step is a pure function of (config, network, query, seed) and
    every answerer consulted is deterministic at any job count, so the
    same discrepancy shrinks to the byte-identical minimal [.xta] on
    every run and at every [--jobs] — which is what makes corpus
    entries stable artifacts.

    Only construction-independent discrepancies ({!Oracle.Xta},
    {!Oracle.Store_trip}, {!Oracle.Ladder}) can be
    shrunk: the generator's ground truth does not survive surgery on
    the network. *)

type result = {
  sh_net : Ta.Model.network;  (** the minimal reproducing network *)
  sh_xta : string;  (** its canonical [.xta] text *)
  sh_accepted : int;  (** reductions applied *)
  sh_tested : int;  (** candidate oracle runs *)
}

(** [shrink cfg ~check ~seed ~q net] minimises [net].  [check] is the
    discrepancy class to preserve; [seed] must be the value passed to
    {!Oracle.core} when the discrepancy was found.  If [net] does not
    reproduce the discrepancy in the first place the result is [net]
    unchanged with [sh_accepted = 0]. *)
val shrink :
  Oracle.config ->
  check:Oracle.check ->
  seed:int ->
  q:Mc.Query.t ->
  Ta.Model.network ->
  result

(** [write_entry ~dir ~id ~query_text ~meta_json r] persists a corpus
    entry: [dir/id/model.xta], [dir/id/query.q] and [dir/id/meta.json]
    (directories created as needed).  Returns the entry directory. *)
val write_entry :
  dir:string ->
  id:string ->
  query_text:string ->
  meta_json:Store.Json.t ->
  result ->
  string
