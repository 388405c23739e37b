(** UPPAAL-style networks of timed automata.

    A network is a parallel composition of automata over a shared set of
    clocks, bounded integer variables and channels.  Channels are binary
    (one sender paired with exactly one receiver) or broadcast (one sender,
    all enabled receivers; a send never blocks).  Locations may be urgent
    (no delay) or committed (no delay, and committed components move
    first). *)

type loc_kind = Normal | Urgent | Committed

type location = {
  loc_name : string;
  loc_kind : loc_kind;
  loc_inv : Clockcons.t;
}

type sync =
  | Tau
  | Send of string
  | Recv of string

type edge = {
  edge_src : string;
  edge_dst : string;
  edge_guard : Clockcons.t;            (** clock guard *)
  edge_pred : Expr.pred;               (** data guard *)
  edge_sync : sync;
  edge_resets : string list;           (** clocks reset to 0 *)
  edge_updates : (string * Expr.t) list;  (** sequential variable updates *)
}

type automaton = {
  aut_name : string;
  aut_locations : location list;
  aut_initial : string;
  aut_edges : edge list;
}

type chan_kind = Binary | Broadcast

type var_decl = {
  var_init : int;
  var_min : int;
  var_max : int;
}

type network = {
  net_name : string;
  net_clocks : string list;
  net_vars : (string * var_decl) list;
  net_channels : (string * chan_kind) list;
  net_automata : automaton list;
}

(** {1 Builders} *)

val location : ?kind:loc_kind -> ?inv:Clockcons.t -> string -> location

val edge :
  ?guard:Clockcons.t ->
  ?pred:Expr.pred ->
  ?sync:sync ->
  ?resets:string list ->
  ?updates:(string * Expr.t) list ->
  string -> string -> edge

val automaton :
  name:string -> initial:string -> location list -> edge list -> automaton

(** [int_var ?min ?max init] declares a bounded variable; defaults are
    [min = 0] and [max = 1_000_000]. *)
val int_var : ?min:int -> ?max:int -> int -> var_decl

(** [flag ()] is a variable over [{0, 1}] initialised to 0. *)
val flag : unit -> var_decl

val network :
  name:string ->
  clocks:string list ->
  vars:(string * var_decl) list ->
  channels:(string * chan_kind) list ->
  automaton list -> network

(** {1 Accessors} *)

val find_automaton : network -> string -> automaton
(** @raise Not_found if absent. *)

val find_location : automaton -> string -> location
(** @raise Not_found if absent. *)

val channel_kind : network -> string -> chan_kind
(** @raise Not_found if absent. *)

(** Channel names an automaton sends on / receives on. *)
val sends_of : automaton -> string list
val receives_of : automaton -> string list

(** {1 Transformations used by the PIM->PSM construction} *)

(** [rename_channels mapping a] replaces every channel name [c] appearing in
    a sync of [a] by [mapping c]. *)
val rename_channels : (string -> string) -> automaton -> automaton

(** [guard_all_edges pred a] conjoins [pred] to the data guard of every edge
    except those for which [except] holds. *)
val guard_all_edges : ?except:(edge -> bool) -> Expr.pred -> automaton -> automaton

(** [replace_automaton net name a] substitutes the automaton called [name]. *)
val replace_automaton : network -> string -> automaton -> network

val add_automata : network -> automaton list -> network

(** {1 Validation} *)

(** Structural well-formedness: unique names; initial and edge endpoints
    exist; every clock, variable and channel referenced is declared;
    broadcast receive edges carry no clock guard (a restriction inherited
    from UPPAAL that the zone explorer relies on); guards and invariants
    are not diagonal, and their constants are at most
    {!Clockcons.max_constant} in magnitude.  Returns the list of
    problems, empty when the network is well-formed. *)
val validate : network -> string list

(** {1 Statistics and printing} *)

val size : network -> int * int
(** [(locations, edges)] summed over all automata. *)

val pp_automaton : Format.formatter -> automaton -> unit
val pp : Format.formatter -> network -> unit
