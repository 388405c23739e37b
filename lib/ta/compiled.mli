(** Compilation of a {!Model.network} to an indexed form used by the zone
    explorer and the discrete-event simulator: clocks, variables, channels
    and locations become dense integer indices; data guards and updates
    become closures over an [int array] valuation; clock constraints are
    normalised to difference bounds [xi - xj {<,<=} n] with index 0 the
    reference clock. *)

(** A normalised difference constraint [xi - xj < n] (strict) or
    [xi - xj <= n]. *)
type dconstraint = {
  dc_i : int;
  dc_j : int;
  dc_strict : bool;
  dc_bound : int;
}

type csync = CTau | CSend of int | CRecv of int

type cedge = {
  ce_aut : int;
  ce_index : int;  (** position in the automaton's edge list, for traces *)
  ce_src : int;
  ce_dst : int;
  ce_guard : dconstraint list;
  ce_pred : int array -> bool;
  ce_sync : csync;
  ce_resets : int list;
  ce_updates : (int * (int array -> int)) list;
}

type cloc = {
  cl_name : string;
  cl_kind : Model.loc_kind;
  cl_inv : dconstraint list;
  cl_free : int list;
      (** clocks owned by this automaton that are {e inactive} here: on
          every path from this location they are reset before being read
          by any guard or invariant.  A zone explorer may soundly free
          them (Daws-Yovine activity reduction). *)
}

type cautomaton = {
  ca_name : string;
  ca_initial : int;
  ca_locs : cloc array;
  ca_out : cedge list array;  (** outgoing edges, indexed by source location *)
}

type t = {
  c_model : Model.network;
  c_nclocks : int;  (** number of real clocks; DBM dimension is [c_nclocks + 1] *)
  c_clock_names : string array;  (** length [c_nclocks + 1]; slot 0 is ["0"] *)
  c_var_names : string array;
  c_var_bounds : (int * int) array;
  c_var_init : int array;
  c_chan_names : string array;
  c_chan_kinds : Model.chan_kind array;
  c_automata : cautomaton array;
  c_max_consts : int array;  (** per clock index (0 unused), for extrapolation *)
}

exception Compile_error of string

(** [compile ?extra_clocks ?clock_ceilings net] validates and compiles.
    [extra_clocks] appends clocks that do not occur in the model (monitor
    clocks); [clock_ceilings] raises the extrapolation constant of given
    clocks (e.g. to the ceiling of a sup-query).

    @raise Compile_error if {!Model.validate} reports problems, a name
    cannot be resolved, or a clock ceiling is past
    {!Clockcons.max_constant}. *)
val compile :
  ?extra_clocks:string list ->
  ?clock_ceilings:(string * int) list ->
  Model.network -> t

val clock_index : t -> string -> int
(** @raise Not_found *)

val var_index : t -> string -> int
(** @raise Not_found *)

val loc_index : t -> aut:string -> string -> int * int
(** [(automaton index, location index)].  @raise Not_found *)

(** [apply_updates c vals updates] evaluates the right-hand sides against
    [vals] sequentially (UPPAAL order) into a fresh array, checking declared
    variable bounds.
    @raise Compile_error on a bound violation. *)
val apply_updates : t -> int array -> (int * (int array -> int)) list -> int array

(** Human-readable label of an edge, e.g. ["EXEIO: Waiting->Reading (invoke)"]. *)
val describe_edge : t -> cedge -> string
