(** The discrete-event platform simulator: the stand-in for the paper's
    physical infusion pump platform and oscilloscope.

    The engine realises an implementation scheme mechanically: interrupt
    dispatch or polling loops at the mc-boundary, bounded io-boundary
    slots, a periodic or aperiodic executive running the
    {!Code_runner} interpreter of the software automaton, and output
    devices — all with processing delays drawn uniformly from
    {e typical-case} intervals supplied by the caller.  The scheme's
    [delay_min]/[delay_max] windows are tested WCETs; typical runs sit
    well inside them, exactly as the paper's measured delays sit inside
    the verified bounds.

    The result is a timestamped event log of both system boundaries, from
    which {!Measure} extracts the M-C, Input- and Output-Delays. *)

(** Typical-case delay distributions (uniform over the given interval,
    in the same time unit as the models). *)
type typical = {
  typ_input_proc : string -> float * float;   (** per m-channel *)
  typ_output_proc : string -> float * float;  (** per c-channel *)
  typ_exec : float * float;                   (** invocation execution time *)
}

type event =
  | Env_signal of string      (** the environment raises an m-signal *)
  | Input_inserted of string  (** processed input entered the io slot *)
  | Input_read of string      (** the code consumed the input *)
  | Input_discarded of string (** delivered, but no enabled edge *)
  | Input_lost of string      (** missed interrupt, overflow or overwrite *)
  | Code_output of string     (** the code produced an output *)
  | Output_visible of string  (** the environment observes the c-signal *)
  | Output_lost of string     (** output overflow or overwrite *)

type entry = {
  at : float;
  event : event;
}

type config = {
  cfg_pim : Transform.Pim.t;
  cfg_scheme : Scheme.t;
  cfg_typical : typical;
  cfg_stimuli : (float * string) list;  (** environment signal times *)
  cfg_horizon : float;                  (** simulation end time *)
}

(** Fault-injection profile for robustness stress-testing.  Faults model
    a degraded platform, not a different one: delay jitter only ever
    {e stretches} device processing delays (never shortens them), and
    drop/duplicate act on mc-boundary samples before the device reacts.
    Consequently the scheme's analytic {e lower} bounds
    ({!Analysis.Bounds.input_delay_min}) still hold under any profile —
    the property the fault-injection tests pin down. *)
type faults = {
  f_delay_jitter : float;(** device delays stretched by up to this fraction *)
  f_drop : float;        (** probability an env sample is lost pre-device *)
  f_dup : float;         (** probability an env sample bounces (duplicates) *)
}

(** [faults ()] builds a profile; raises [Invalid_argument] when
    [jitter < 0] or a probability is outside [[0, 1]]. *)
val faults : ?jitter:float -> ?drop:float -> ?dup:float -> unit -> faults

(** [run ~seed config] simulates one scenario and returns the event log
    in time order.  Deterministic in [(seed, faults, config)]: the fault
    stream is derived from [seed] too, so each scenario of a multi-run
    measurement draws its own faults.  With [?faults] omitted the run is
    draw-for-draw identical to the engine without fault injection. *)
val run : seed:int -> ?faults:faults -> config -> entry list

val pp_entry : Format.formatter -> entry -> unit
