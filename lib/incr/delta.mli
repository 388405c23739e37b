(** Zone-graph delta re-exploration.

    A {e recording} run evaluates a query through the ordinary
    sequential explorer while remembering, for every expanded symbolic
    state, the successors that survived firing: the moving edges (as
    stable positions in the per-location edge tables), the synchronising
    channel, the successor's discrete part and its zone both {e before}
    extrapolation ({!Mc.Explorer.fire_pre}) and after it.  A {e replay}
    run on an edited network first diffs the two compiled networks;
    when the edit kept declarations, automata and locations (by name)
    and added no urgency, each popped state whose recorded expansion is
    untouched by the edit is re-admitted instead of re-fired — dead
    candidates are skipped entirely, and when the edit also left the
    extrapolation tables alone the recorded post-extrapolation zone is
    admitted verbatim ({!Mc.Explorer.admit_post}), skipping the
    per-successor extrapolation and re-closure otherwise paid by
    {!Mc.Explorer.admit_pre}.  That is where the speedup lives.  States whose
    current location (in any changed automaton) has a different
    out-edge table, invariant, kind or clock-activity set fall back to
    real firing, so verdicts, sups, statistics and traces are
    byte-identical to a from-scratch sequential run (the correctness
    bar; see DESIGN.md "Incremental re-verification").

    Recording only live successors is sound because re-admission is
    gated on the popped state's location row being unchanged: a
    candidate that fired dead under the old network fires dead under
    the new one too (same guards, same invariants, same source zone). *)

type graph

(** Number of recorded (expanded) states. *)
val size : graph -> int

(** Binary encoding for persistence; {!decode} rejects foreign or
    version-skewed blobs by magic, never by crashing. *)
val encode : graph -> string

val decode : string -> (graph, string) result

type run = {
  dr_result : Mc.Query.result;
  dr_graph : graph;  (** the updated graph — persist for the next edit *)
  dr_replayed : int;  (** expansions answered from the recorded graph *)
  dr_expanded : int;  (** expansions that fired for real *)
}

(** Evaluate [q] on [net] sequentially (the [jobs = 1] path of
    {!Mc.Query.eval}, byte-identical results) while recording the
    expansion graph.
    @raise Ta.Compiled.Compile_error / [Not_found] as {!Mc.Query.eval}. *)
val record :
  ?ctl:Mc.Runctl.t -> ?limit:int -> Ta.Model.network -> Mc.Query.t -> run

(** [replay ~old_net ~graph net q] re-evaluates [q] on the edited [net],
    replaying from [graph] (recorded on [old_net]).  [Error reason]
    when the edit is outside the delta engine's reach — declarations,
    automaton/location name lists changed, urgency added, or the graph
    does not belong to ([old_net], [q]) — in which case the caller
    should fall back to {!record}. *)
val replay :
  ?ctl:Mc.Runctl.t -> ?limit:int -> old_net:Ta.Model.network ->
  graph:graph -> Ta.Model.network -> Mc.Query.t -> (run, string) result
