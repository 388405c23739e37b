(** The Section VI experiment: Table I of the paper.

    Three independent ways of looking at the same system:

    - {e analytic} bounds from the platform parameters (Lemmas 1 and 2);
    - {e verified} bounds from model checking the PSM (sup-queries over
      boundary monitors, plus the overflow safety checks);
    - {e measured} delays from executing the generated-code interpreter
      on the simulated platform over repeated bolus-request scenarios
      (the paper used 60 runs on the physical pump).

    The paper's headline result — every measured delay is bounded by the
    verified bound, while the original 500 ms requirement is violated —
    is checked by the test suite on top of this module. *)

type verified = {
  v_mc : Mc.Explorer.sup_result;      (** bolus request -> infusion start *)
  v_input : Mc.Explorer.sup_result;   (** bolus request -> code read *)
  v_output : Mc.Explorer.sup_result;  (** code output -> visible start *)
  v_overflow_free : bool;             (** constraints 1-3 all satisfied *)
}

type analytic = {
  a_input : int;
  a_output : int;
  a_internal : int;
  a_mc : int;
}

type measured = {
  m_mc : Sim.Measure.stats;
  m_input : Sim.Measure.stats;
  m_output : Sim.Measure.stats;
  m_losses : int;            (** lost inputs/outputs across all scenarios *)
  m_req1_violations : int;   (** scenarios with M-C delay > 500 *)
  m_scenarios : int;
}

type table1 = {
  t_analytic : analytic;
  t_verified : verified;
  t_measured : measured;
}

(** Model-check the PSM for the verified row.  [ceiling] defaults to a
    comfortable margin above the analytic bound. *)
val verified_bounds : ?ceiling:int -> Params.t -> verified

(** Lemma-1/2 bounds; [a_internal] is the PIM's verified 500 ms bound. *)
val analytic_bounds : Params.t -> analytic

(** [measure ~seed ~scenarios p] runs the platform simulator over
    [scenarios] independent single-bolus scenarios with randomised
    request phase and typical-case delays. *)
val measure : ?scenarios:int -> seed:int -> Params.t -> measured

(** The full Table I: analytic + verified + measured (60 scenarios, like
    the paper). *)
val table1 : seed:int -> Params.t -> table1

(** Typical-case distributions used by the simulator, derived from
    {!Params.t}; exposed so examples can build custom scenarios. *)
val typical : Params.t -> Sim.Engine.typical

(** One simulation scenario: a single bolus request at [request_time]. *)
val scenario_config :
  ?variant:Model.variant -> Params.t -> request_time:float -> Sim.Engine.config

val pp_table1 : Format.formatter -> table1 -> unit

(** {1 Supplemental requirements (beyond the paper's Table I)}

    The full GPCA variant carries two more bounded-response requirements
    from the GPCA safety-requirement set the paper cites:
    REQ2 — the empty-syringe alarm sounds within [alarm_max]; and
    REQ3 — a pause request stops the motor within [pause_max].  Both hold
    on the PIM by construction; on the PSM they relax by the same
    platform chain as REQ1. *)

type supplemental = {
  sup_alarm_pim : Mc.Explorer.sup_result;
  sup_pause_pim : Mc.Explorer.sup_result;
  sup_alarm_analytic : int;
  sup_pause_analytic : int;
  sup_alarm_psm : Mc.Explorer.sup_result;
  sup_pause_psm : Mc.Explorer.sup_result;
}

(** [supplemental p]: PIM bounds, Lemma-1/2 sums and the model-checked
    full-variant PSM bounds for the alarm and pause chains (the two PSM
    searches visit 139,634 and 111,070 states, a few seconds). *)
val supplemental : Params.t -> supplemental

val pp_supplemental : Format.formatter -> supplemental -> unit
