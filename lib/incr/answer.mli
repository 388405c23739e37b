(** The one answerer behind [psv verify], [query], [check], [watch] and
    the fuzz oracle: [Plain] explores, [Cached c] answers from the store
    or explores and publishes ({!Analysis.Qcache.cached}), [Session s]
    climbs the incremental ladder ({!Session.run}).  A [Sup_delay]
    exploration is {!Mc.Query.max_delay} + {!Mc.Query.result_of_sup}, so
    an interrupted search hands back its snapshot and can be resumed;
    any other query is {!Mc.Query.eval}. *)

type route = Plain | Cached of Analysis.Qcache.t | Session of Session.t

type t = {
  an_result : Mc.Query.result;
  an_rung : Session.rung option;  (** [Some] exactly on [Session] *)
  an_snapshot : Mc.Explorer.snapshot option;
      (** an interrupted [Sup_delay] exploration's state, on [Plain] and
          [Cached]; the ladder's full rung keeps none *)
}

(** [resume] continues an interrupted [Sup_delay] search; a store or
    ladder answer never reads it.
    @raise Invalid_argument when an exploration is asked to resume a
    query that is not [Sup_delay], or a snapshot of another search.
    @raise Ta.Compiled.Compile_error / [Not_found] as {!Mc.Query.eval}. *)
val run :
  ?ctl:Mc.Runctl.t -> ?limit:int -> ?resume:Mc.Explorer.snapshot ->
  route -> Ta.Model.network -> Mc.Query.t -> t

(** The result's visited states on the ladder's [Full] rung, else [0]. *)
val expanded : t -> int
