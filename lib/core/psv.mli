(** Platform-Specific timing Verification — the umbrella namespace.

    This library reproduces Kim, Feng, Phan, Sokolsky and Lee,
    {e "Platform-Specific Timing Verification Framework in Model-Based
    Implementation"} (DATE 2015).  The pipeline:

    + model the software and its environment as a network of timed
      automata ({!Model}) — the platform-independent model (PIM,
      {!Pim});
    + verify its timing requirements with the zone-based model checker
      ({!Explorer}, or the convenience wrappers below);
    + describe the execution platform as an implementation scheme
      ({!Scheme});
    + transform the PIM into the platform-specific model
      ({!Transform.psm_of_pim});
    + re-verify on the PSM, derive the relaxed bound
      [Δ'mc = Δmi + Δoc + Δio-internal] ({!Bounds}, {!Query}) after
      checking the four boundedness constraints ({!Constraints});
    + cross-validate against the simulated implementation ({!Sim}).

    The GPCA infusion pump case study lives in {!Gpca}; models can be
    exchanged in a textual format via {!Xta}. *)

module Expr = Ta.Expr
module Clockcons = Ta.Clockcons
module Model = Ta.Model
module Compiled = Ta.Compiled
module Bound = Zone.Bound
module Dbm = Zone.Dbm
module Monitor = Mc.Monitor
module Explorer = Mc.Explorer
module Runctl = Mc.Runctl
module Query = Mc.Query
module Store = Store
module Qcache = Analysis.Qcache
module Scheme = Scheme
module Pim = Transform.Pim
module Transform = Transform
module Bounds = Analysis.Bounds
module Constraints = Analysis.Constraints
module Sim = Sim
module Gpca = Gpca
module Xta = Xta
module Codegen = Codegen

(** [verify_response net ~trigger ~response ~bound] checks the bounded
    response requirement [P(bound)] on any network (PIM or PSM):
    [Holds], [Fails] (with a counterexample when available), or
    [Unknown] when a govern token's budget interrupted the search before
    a definite answer. *)
val verify_response :
  ?limit:int -> ?ctl:Mc.Runctl.t ->
  Model.network -> trigger:string -> response:string -> bound:int ->
  Mc.Query.outcome

(** Verified maximum delay between two synchronisations
    ({!Mc.Query.max_delay}). *)
val max_delay :
  ?limit:int -> ?ctl:Mc.Runctl.t -> ?resume:Mc.Explorer.snapshot ->
  Model.network ->
  trigger:string -> response:string -> ceiling:int ->
  Mc.Explorer.sup_outcome
