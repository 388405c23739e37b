(** Seeded random model edits, shared by the incremental chaos test,
    the fuzz oracle's ladder check and perfbench's edit-loop.  An edit
    is deterministic in the supplied {!Random.State.t} and yields a
    well-formed network (the edit classes are chosen so
    {!Ta.Model.validate} stays clean). *)

type edit = {
  ed_desc : string;  (** human-readable, e.g. ["Pump guard t <= 5 -> 6"] *)
  ed_net : Ta.Model.network;
}

(** One random edit drawn from the applicable classes: one
    clock-constraint constant (guard or invariant) bumped by a small
    signed amount — the paper's edit-one-constant workflow, twice as
    likely as the others — a guard's strictness flipped ([<]/[<=],
    [>]/[>=]), or a disconnected time-inert automaton added or removed.
    @raise Invalid_argument if no class applies (a network with no
    clock constraints at all). *)
val random_edit : Random.State.t -> Ta.Model.network -> edit
