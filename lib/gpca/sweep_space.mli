(** The GPCA design space for [psv sweep-schemes]: named grid axes over
    the bolus path's implementation choices and the per-point problem
    builder the sweep engine ({!Analysis.Sweep}) consumes.

    Every point describes a bolus-only PSM — the REQ1 cone of
    influence — so the dedup key contains only what that PSM and the
    Lemma-1/2 bounds depend on.  Axes that drop out (the poll interval
    of an interrupt-driven point, say) collapse onto one exploration. *)

(** The fixed parameters behind the axes. *)
type base =
  | Small
      (** every constant scaled ~10x down from Table I so an undecided
          point explores in 1-100 ms — the grid/bench preset *)
  | Table1  (** the paper's calibrated constants *)

val base_of_string : string -> (base, string) result
val base_name : base -> string

(** REQ1 for the base: 500 ms against Table I, 60 against [Small]. *)
val default_req : base -> int

val validate_axes : string list -> (unit, string) result

(** The platform cost vector of a point, componentwise minimised by
    the Pareto frontier: buffer slots, invocation rate, detection rate
    (an interrupt line counted as a fast, expensive detector), and the
    two device speeds. *)
val cost : Params.t -> Scheme.t -> int array

(** Minimum spacing between bolus requests the serial environment
    guarantees: one prep window plus the full infusion hold. *)
val min_interarrival : Params.t -> int

(** [spec_of_assignment ~base ~req asg] resolves one explicit axis
    assignment into the engine's per-point spec: analytic bounds, the
    loss-freedom flag, the dedup key and the PSM thunk.  Callers with
    couplings a grid product cannot express (the period sweep ties the
    execution window to the period) enumerate assignments themselves. *)
val spec_of_assignment :
  ?variant:Model.variant ->
  base:base -> req:int -> (string * int) list -> Analysis.Sweep.spec

(** [build ~base ~req grid index] is the sweep engine's [build]
    callback: {!Scheme.Grid.point} composed with
    {!spec_of_assignment}. *)
val build :
  ?variant:Model.variant ->
  base:base -> req:int -> Scheme.Grid.t -> int -> Analysis.Sweep.spec
