(** The GPCA infusion pump models of Fig. 1, extended with the
    empty-syringe alarm path mentioned in the paper's Fig. 1 listing
    ([m-EmptySyringe], [c-StopInfusion], [c-Alarm]).

    The software automaton [Pump] (the paper's [M]):

    - [Idle] --[m_BolusReq?]--> [BolusPrep] (clock [x] reset)
    - [BolusPrep] (inv [x <= prep_max]) --[x >= prep_min,
      c_StartInfusion!]--> [Infusing]
    - [Infusing] --[x >= infusion_hold, c_StopInfusion!]--> [Idle]
    - any operational location --[m_EmptySyringe?]--> [Empty]
      --[c_Alarm!]--> [Alarmed] within [alarm_max]

    The environment automaton [Patient] (the paper's [ENV]) requests a
    bolus, awaits the infusion start, observes the stop, and may instead
    signal an empty syringe and await the alarm.

    All channels are broadcast: mc-boundary synchronisations are direct
    and non-blocking (Fig. 4), and this is what lets the PSM discard an
    input the software cannot consume. *)

type variant =
  | Bolus_only  (** just the REQ1 path — smaller state space *)
  | Full        (** with the empty-syringe alarm and pause paths *)

(** {1 Channel names} *)

val bolus_req : string
val empty_syringe : string
val pause_req : string
val start_infusion : string
val stop_infusion : string
val alarm : string
val pause_infusion : string

(** {1 Clock names} *)

val software_clock : string

(** {1 Model builders} *)

val software : ?variant:variant -> Params.t -> Ta.Model.automaton
val environment : ?variant:variant -> Params.t -> Ta.Model.automaton
val network : ?variant:variant -> Params.t -> Ta.Model.network

(** The PIM descriptor [M || ENV] ready for {!Transform.psm_of_pim}. *)
val pim : ?variant:variant -> Params.t -> Transform.Pim.t

(** The PSM for the default Section-VI scheme. *)
val psm : ?variant:variant -> Params.t -> Transform.psm

(** The PSM under an explicit scheme — the sweep engine's
    parameterization hook: [p] supplies the software/environment timing
    (prep window, infusion hold), the scheme everything else.  The
    scheme's channels must match the variant's boundary. *)
val psm_with : ?variant:variant -> Params.t -> Scheme.t -> Transform.psm
