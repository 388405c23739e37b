(** The differential oracle: run one generated instance through every
    independent answerer the repository has and assert pairwise
    consistency.

    Answerers and cross-checks, per instance:

    - {b truth} — the sequential explorer's sup against the generator's
      known-by-construction value ({!Gen.Exact}) or analytic Lemma-2
      window ({!Gen.Between}, reported as the {!Analytic} check);
    - {b bounded} — [bounded: t -> r within ub] must hold and
      [within floor - 1] must fail, exercising the verdict path on both
      sides of the sup;
    - {b xta} — print → reparse → re-verify: the textual round-trip
      must preserve the outcome byte-for-byte, compared with the primary
      outcome as reported (mutation included);
    - {b store} — with a cache attached, the warm store answer must
      equal the cold computed one (entry round-trip);
    - {b ladder} — a seeded {!Incr.Edit.random_edit} re-verified through
      the {!Incr.Session} ladder (cone or full rung) must match a
      from-scratch run on the edited network;
    - {b sim} — for {!Gen.Psm_scheme} instances, measured M-C delays
      over randomized scenarios must stay within [[floor, sup]]; under
      a fault profile (which only ever stretches delays) the upper
      comparison is skipped and the floor must still hold.

    The [mutation] hook skews one answerer on purpose — the harness's
    own smoke detector: a skewed primary sup must be caught as an [Xta]
    discrepancy (the re-verified network reports the true sup) and must
    survive shrinking.

    Scheduling: an instance's independent explorations (the cold store
    answer with its warm re-read, the xta round-trip, the ladder's
    session pair, its from-scratch run and the two bounded queries) run
    as one {!Analysis.Pool.map} batch, longest first, on [config.jobs]
    domains (the pool clamps it to the host's cores), and the simulator
    last, as it reads the sup.  Results are compared after the
    batch in a fixed order, so verdicts, discrepancy details and the
    exception that escapes are the same at every [jobs]. *)

(** Test-only fault injection: report the primary sup as [v + k]. *)
type mutation = Sup_skew of int

type config = {
  jobs : int;
      (** the domains, at most the host's cores, that an instance's
          independent checks share *)
  scenarios : int;  (** sim scenarios per {!Gen.Psm_scheme} instance *)
  sim_faults : Sim.Engine.faults option;
      (** measure under a degraded platform; disables the sim upper
          comparison, keeps the floor *)
  cache : Analysis.Qcache.t option;  (** enables the store round-trip *)
  mutation : mutation option;
}

(** [jobs = 2], [scenarios = 3], no faults, no cache, no mutation. *)
val default : config

type check =
  | Truth
  | Analytic
  | Bounded
  | Xta
  | Store_trip
  | Ladder
  | Sim

val check_name : check -> string
val check_of_name : string -> check option

type discrepancy = {
  d_check : check;
  d_detail : string;
}

type verdict = {
  v_id : string;
  v_shape : Gen.shape;
  v_sup : int option;  (** the (unmutated) primary sup, when defined *)
  v_sim_max : float option;
      (** the sim check's largest measured M-C delay; [None] when the
          sim answerer did not run or completed no sample *)
  v_discrepancies : discrepancy list;
  v_wall_ms : float;
}

(** The construction-independent answerer pairs (xta, store, ladder)
    on a bare network + query — the subset that stays meaningful on
    shrunk networks, where the generator's truth no longer applies.
    Returns the primary result, its (possibly mutated) outcome, and the
    discrepancies.  [seed] keys the ladder edit.  May raise whatever
    {!Mc.Query.eval} raises on a hostile network. *)
val core :
  config ->
  net:Ta.Model.network ->
  q:Mc.Query.t ->
  seed:int ->
  Mc.Query.result * Mc.Query.outcome * discrepancy list

(** The full oracle on a generated instance. *)
val run : config -> Gen.instance -> verdict
