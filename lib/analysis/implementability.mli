(** Implementability checks for the PSM.

    A platform-independent model may demand reactions the platform cannot
    deliver: a guard window [x in [L, U]] (lower-bound guard plus source
    invariant) narrower than one invocation period plus the execution
    window can fall entirely between two compute stages, leaving [MIO]
    unable to honour its invariant — a {e timelock} in the PSM, and a
    missed deadline in the implementation.  This is the flip side of the
    paper's "similar timed behavior" assumption (Section IV, footnote 3).

    Two complementary checks:

    - {!check_window_widths}: a fast structural sufficient condition on
      the software automaton's guard windows against the scheme's
      invocation parameters — warnings, not verdicts;
    - {!find_timelock}: exact detection by model checking the PSM for a
      reachable time-blocked state without successors. *)

type window_warning = {
  ww_edge : string;    (** [src -> dst] of the offending software edge *)
  ww_clock : string;
  ww_window : int;     (** [U - L] *)
  ww_needed : int;     (** period (or gap) + wcet_max *)
}

(** Structural check.  An edge is flagged when its clock guard has a
    lower bound [L], its source location bounds the same clock by [U],
    and [U - L < needed].  Edges without a lower-bound guard, or source
    locations without an invariant on that clock, are never flagged. *)
val check_window_widths : Transform.psm -> window_warning list

(** Model-check the PSM for a reachable timelock; returns the witness
    trace when one exists. *)
val find_timelock : ?limit:int -> Transform.psm -> string list option
