(** Platform and software timing parameters of the GPCA infusion pump case
    study (Section VI).

    The paper's own parameter table lives in the unavailable technical
    report MS-CIS-14-11; the values here are reverse-engineered so that
    the Lemma-1/Lemma-2 analytic bounds reproduce the published Table I
    row exactly:

    - Input-Delay bound: poll 50 + input processing 340 + period 100 = 490 ms
    - Output-Delay bound: execution window 100 + output processing 340 = 440 ms
    - M-C bound: 490 + 440 + internal 500 = 1430 ms

    All times are in milliseconds.  The [delay_max] values play the role
    of tested WCETs, which dominate the delays observed in typical runs —
    the simulator draws typical-case delays from the [typ_*] intervals,
    which sit well inside the WCET windows, mirroring how the paper's
    measured delays sit well below the verified bounds. *)

type t = {
  poll_interval : int;       (** bolus-request polling interval *)
  bolus_proc : Scheme.delay_bounds;   (** Input-Device WCET window *)
  empty_proc : Scheme.delay_bounds;   (** empty-syringe interrupt processing *)
  output_proc : Scheme.delay_bounds;  (** Output-Device WCET window *)
  period : int;              (** code invocation period *)
  exec : Scheme.exec_window; (** invocation execution window *)
  buffer_size : int;         (** io-boundary buffer capacity *)
  prep_min : int;            (** earliest bolus start after the request is read *)
  prep_max : int;            (** latest bolus start (the PIM's 500 ms bound) *)
  infusion_hold : int;       (** infusion duration before stop *)
  infusion_slack : int;
  (** width of the stop window: [Infusing]'s invariant is
      [x <= infusion_hold + infusion_slack], so the code must stop the
      infusion within that many ms after the hold *)
  alarm_max : int;           (** alarm deadline after empty-syringe *)
  pause_max : int;           (** motor-stop deadline after a pause request *)
  typ_bolus_proc : int * int;   (** typical input processing, for simulation *)
  typ_output_proc : int * int;  (** typical output processing, for simulation *)
  typ_exec : int * int;         (** typical execution time, for simulation *)
}

(** The Table-I-calibrated parameter set described above. *)
val default : t

(** The Section-VI scheme: Example 1's [IS1], except that the bolus
    request — a latched button register — is read by polling, and the
    device windows are the case study's. *)
val scheme : t -> Scheme.t

(** [REQ1]'s bound: a bolus must start within 500 ms of the request. *)
val req1_bound : int
