(** Scheme-space sweep: race the Lemma-1/2 analytic bounds against the
    zone explorer over a grid of implementation schemes.

    Per point, in order of cost: a physically invalid scheme
    ({!Scheme.check}) is reported [Invalid] for free; a loss-free point
    whose analytic upper bound already meets the requirement is decided
    [Pass] with zero model checking; a point whose analytic lower
    bound already violates it is decided [Fail] likewise; only the
    remaining {e undecided band} is model checked, with the ceiling at
    the requirement (exact there).

    Undecided points are deduplicated on their canonical key
    ({!spec.sp_key}) {e before} any network is built: axes outside the
    requirement's cone of influence collapse, keys resolved earlier in
    the run answer later points from an in-memory memo, and the
    persistent store ([sw_cache]) extends the same dedup across runs.

    The engine is domain-agnostic: it consumes a point count and a
    [build] function (typically {!Scheme.Grid.point} composed with
    {!Gpca.Sweep_space.build}) and never materialises the grid. *)

type verdict = Pass | Fail | Unknown | Invalid

type decision =
  | By_upper_bound  (** analytic UB [<=] requirement, loss-free *)
  | By_lower_bound  (** analytic LB [>] requirement *)
  | By_invalid      (** {!Scheme.check} refused the combination *)
  | By_explorer     (** model checked in this run *)
  | By_memo         (** same key as an earlier point of this run *)

(** Everything the engine needs to know about one grid point.  [build]
    must be cheap — in particular [sp_net] is a thunk, called at most
    once per distinct [sp_key] and only for the undecided band. *)
type spec = {
  sp_req : int;  (** the requirement bound being raced *)
  sp_ub : int;  (** Lemma-2 analytic upper bound *)
  sp_lb : int;  (** analytic worst-case lower bound *)
  sp_sound : bool;
      (** analytic Pass decisions allowed: the loss-free sufficient
          condition holds ({!Bounds.loss_free_serial}), so the upper
          bound genuinely bounds the model-checked sup *)
  sp_key : string;
      (** canonical digest of the point's requirement cone — scheme
          projection plus model parameters plus requirement; equal keys
          share one exploration *)
  sp_net : unit -> Ta.Model.network;
  sp_trigger : string;
  sp_response : string;
  sp_cost : int array;
      (** platform cost vector, componentwise minimised for the Pareto
          frontier *)
  sp_invalid : string option;  (** [Some problems] from {!Scheme.check} *)
}

type point_result = {
  pr_index : int;
  pr_verdict : verdict;
  pr_decision : decision;
  pr_ub : int;
  pr_lb : int;
  pr_sup : Mc.Explorer.sup_result option;
      (** present for explorer/memo decisions *)
  pr_cost : int array;
}

type config = {
  sw_prefilter : bool;
      (** [false] = explorer-everywhere baseline (still dedups) *)
  sw_jobs : int;  (** domain pool width for the undecided band *)
  sw_limit : int option;  (** per-query state limit *)
  sw_ctl : Mc.Runctl.t option;
      (** budgets, applied per exploration ({!Mc.Runctl.sibling}), and
          cancellation of the whole sweep *)
  sw_cache : Qcache.t option;  (** persistent cross-run dedup *)
  sw_audit : int;
      (** also model check every [N]-th analytically decided point and
          compare verdicts; [0] disables auditing *)
  sw_emit : (point_result -> unit) option;
      (** streaming sink, called once per point in index order *)
}

val default_config : config
(** prefilter on, 1 job, no audit, no cache, no sink.  Points are
    decoded and classified 4096 at a time, so the grid itself is never
    materialised. *)

type outcome = {
  o_points : int;
  o_pass : int;
  o_fail : int;
  o_unknown : int;
  o_invalid : int;
  o_analytic_pass : int;  (** Pass points decided without the explorer *)
  o_analytic_fail : int;  (** Fail points decided without the explorer *)
  o_explored : int;  (** points answered by exploration or memo *)
  o_memo_hits : int;  (** of which: answered by the in-run key memo *)
  o_mc_runs : int;
      (** explorer queries issued (persistent-store hits included) *)
  o_skip_rate : float;
      (** (analytic + invalid) / points — the prefilter's yield *)
  o_audited : int;
  o_audit_mismatches : (int * string) list;
      (** point index and diagnosis for every audited analytic decision
          the explorer contradicted; must be empty *)
  o_interrupted : int;
  o_wall_ms : float;
  o_pareto : (int * int array) list;
      (** non-dominated Pass points: (index, cost), discovery order *)
}

val run : config -> points:int -> build:(int -> spec) -> outcome
(** Sweep points [0 .. points-1].  [build i] is called exactly once per
    index, in increasing order within each batch. *)

val verdict_name : verdict -> string
val decision_name : decision -> string

(** [dominates a b]: [a] is componentwise [<=] [b] and strictly [<]
    somewhere (exposed for tests). *)
val dominates : int array -> int array -> bool
