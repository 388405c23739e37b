(** Seeded random model edits, shared by [bench/incr_bench.ml] and the
    chaos test.  Each mutator is deterministic in the supplied
    {!Random.State.t} and returns a well-formed network (the edit
    classes are chosen so {!Ta.Model.validate} stays clean); [None]
    when the network offers no site for that edit class. *)

type edit = {
  ed_desc : string;  (** human-readable, e.g. ["Pump guard t <= 5 -> 6"] *)
  ed_net : Ta.Model.network;
}

(** Bump one clock-constraint constant (guard or invariant) by a small
    signed amount — the paper's edit-one-constant workflow. *)
val tweak_constant : Random.State.t -> Ta.Model.network -> edit option

(** One random edit drawn from the applicable classes: {!tweak_constant}
    (twice as likely), a guard's strictness flipped ([<]/[<=],
    [>]/[>=]), or a disconnected time-inert automaton added or removed.
    @raise Invalid_argument if no class applies (a network with no
    clock constraints at all). *)
val random_edit : Random.State.t -> Ta.Model.network -> edit
