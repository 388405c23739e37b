(** Difference bound matrices over [dim] clocks, where clock 0 is the
    constant reference clock.  Entry [(i, j)] bounds [x_i - x_j].

    All operations other than {!copy} mutate in place.  Unless noted
    otherwise they expect the input in canonical form (as produced by
    {!zero}, {!canonicalize} or any operation below) and preserve
    canonicity.  An empty zone is represented with a negative diagonal
    entry at [(0, 0)]; operations on empty zones are allowed and keep the
    zone empty.

    A zone's matrix always has [dim * dim] entries, and the kernels'
    inner loops ({!up}, {!up_to}, {!constrain}, {!reset}, {!free},
    {!extrapolate}, {!includes_rows}, {!weight}) read and write it
    without bounds checks.  Each checks its clock arguments and row set
    against [dim] before its loops, so an out-of-range clock or row
    still fails (an assertion or [Invalid_argument]) rather than
    reading past the matrix. *)

type t

(** [zero dim] is the point zone where every clock equals 0.
    [dim] counts the reference clock, so a model with [n] clocks uses
    [dim = n + 1]. *)
val zero : int -> t

val dim : t -> int
val copy : t -> t
val get : t -> int -> int -> Bound.t
val is_empty : t -> bool

(** Full Floyd-Warshall closure, O(dim^3); marks the zone empty on a
    negative cycle.  No operation of this library calls it: each keeps
    its zones closed itself ({!constrain} in O(dim^2), the
    extrapolations over the entries they loosen).  It is for matrices
    assembled outside those operations, such as an {!of_ints} input not
    known to be canonical. *)
val canonicalize : t -> unit

(** Delay: remove the upper bounds of all clocks (future closure). *)
val up : t -> unit

(** [up_to z clocks bounds] is {!up} followed by [constrain z
    clocks.(q) 0 bounds.(q)] for every [q], the delay step under
    upper-bound invariants [x_i < c] / [x_i <= c], with the same
    canonical matrix when the result is non-empty (and empty exactly
    when that sequence empties the zone).  It re-closes once, in
    O(dim * (dim + |clocks|)), where the sequence re-closes once per
    tightening bound in O(dim^2) each: after [up] the bounds are the
    only edges into clock 0, so one new column 0 and one relaxation of
    each row through clock 0 close the zone.  Lower bounds need no
    re-application after a delay, which never lowers a clock.
    @raise Invalid_argument when the arrays differ in length, a clock
    is outside [1 .. dim - 1] or a bound is infinite. *)
val up_to : t -> int array -> Bound.t array -> unit

(** [constrain z i j b] intersects with [x_i - x_j ~ b].  O(dim^2). *)
val constrain : t -> int -> int -> Bound.t -> unit

(** [satisfiable z i j b] is whether intersecting with [x_i - x_j ~ b]
    would leave the zone non-empty.  Does not mutate. *)
val satisfiable : t -> int -> int -> Bound.t -> bool

(** [reset z i] sets clock [i] to 0. *)
val reset : t -> int -> unit

(** [free z i] removes all constraints on clock [i] except non-negativity. *)
val free : t -> int -> unit

(** {2 Row sets}

    Activity reduction frees a clock where no path reads it before a
    reset, and a freed clock's row stays infinite off the diagonal until
    the clock is reset.  The kernels below take the rows that may be
    finite, a {e row set}: row 0, then clock rows in strictly increasing
    order below [dim].  Every row outside the set must be infinite off
    the diagonal in each zone passed along with it; the kernels neither
    read nor check those rows.  A caller that knows no such rows passes
    {!all_rows}.  A row outside the dimension raises [Invalid_argument],
    and so does, in {!extrapolate}, a set that does not start with row
    0 or does not increase. *)

(** [all_rows dim] is the row set of every row, [[|0; ...; dim - 1|]].
    Small dimensions share one array: do not write into it. *)
val all_rows : int -> int array

(** [extrapolate z k rows] is classic maximal-constant extrapolation
    (ExtraM) over the rows in [rows].  [k.(i)] is the largest constant
    compared against clock [i]; [k.(0)] must be 0.  With every other row
    infinite off the diagonal, the result is the matrix ExtraM over the
    whole zone gives: it leaves those rows as they are.

    The input must be canonical.  Extrapolation only loosens entries,
    and in a closed zone closure can then change only the loosened
    ("touched") entries, so the re-closure runs every pivot in [rows]
    over those alone: O(dim * |rows|) for the scan plus
    O(|rows| * touched), against dim^3 for {!canonicalize}, with the
    same result.  A non-canonical input is {e not} repaired.  A
    non-empty zone stays non-empty.

    {b Row 0.}  When no entry of row 0 exceeds [le 0] (clocks are
    non-negative, as in every zone these operations build from
    {!zero}), the scan reads a clock row in full only when its upper
    bound exceeds its constant, and otherwise only at the columns whose
    row-0 entry was below [lt (-k.(j))]: in such a canonical zone no
    other entry can cross a constant.  A row 0 above [le 0] falls back
    to the full scan of every row in [rows]. *)
val extrapolate : t -> int array -> int array -> unit

(** [includes_rows a b rows] is whether every entry of [b] in [rows]
    is at most [a]'s: {!includes} when every other row is infinite off
    the diagonal in both zones.  Both must be canonical.  An empty [b]
    is included in everything. *)
val includes_rows : t -> t -> int array -> bool

(** [includes a b] is whether [b]'s valuation set is a subset of [a]'s:
    {!includes_rows} over {!all_rows}. *)
val includes : t -> t -> bool

(** Semantic equality: same dimension and either the same canonical
    matrix or both empty. *)
val equal : t -> t -> bool

(** [weight z rows] is the clamped sum of the encoded bounds of the rows
    in [rows]: a scalar dominance measure.  [includes_rows a b rows]
    implies [weight a rows >= weight b rows], and equal weights together
    with that inclusion force those rows equal.  A subsumption probe
    therefore only tests an inclusion when the weights allow it. *)
val weight : t -> int array -> int

(** {2 Subsumption keys}

    A key is a flat summary of a non-empty zone that refutes most
    inclusions with a few integer compares, and the only place that
    knows its layout is this module.  It is the zone's {!weight} over a
    row set as a full int (the key's head), then the zone's clock bounds packed
    several to a machine word: the upper bounds (column 0) from the
    highest clock index down, then the lower bounds (row 0) likewise.  Entry (0, 0) is [le 0] in every non-empty zone and is
    left out.  A bound becomes a small {e lane} value by a monotone map
    (strict below non-strict at one constant, [Bound.infinity] the top
    value), and the lane width is derived from the largest constant the
    searched zones compare against, so that every bound of an
    extrapolated zone maps to a distinct value.  Bounds outside that
    range are clamped, which is monotone too: they lose pruning power,
    never soundness.  Unused lanes of the last word are 0 in every key.

    {b Soundness.}  For non-empty [a] and [b], [includes a b] holds iff
    every encoded bound of [b] is [<=] the matching bound of [a]; the
    lanes are monotone images of such bounds, and {!weight} is monotone
    in them.  So [includes a b] implies [ge fmt ka kb] for their keys
    written with one row set,
    and [not (ge fmt ka kb)] proves [not (includes a b)].  The premise matters: an empty [b] is included
    in everything whatever its key, so keys prefilter only stores of
    non-empty zones (the explorer never stores an empty one). *)
module Key : sig
  type zone := t

  (** The layout of the keys of one search: dimension and lane width. *)
  type t

  (** [make ~dim ~max_const] lays out keys of [dim]-dimensional zones
      whose extrapolation constants are at most [max_const].  Each lane
      holds the [4 * max_const + 3] values from [lt (-max_const)] to
      [le max_const] and infinity, plus a guard bit, and a word holds as
      many lanes as fit in an [int]: four 15-bit lanes up to
      [max_const = 4095], three up to [262143], two beyond, where
      constants past [2{^28} - 1] are clamped. *)
  val make : dim:int -> max_const:int -> t

  (** Ints per key: the head and the packed words. *)
  val len : t -> int

  (** Bits per lane, guard bit included. *)
  val width : t -> int

  (** Lanes per word. *)
  val lanes : t -> int

  (** The lane value of an encoded bound: monotone in the bound,
      [Bound.infinity] the largest value, finite bounds clamped below
      it. *)
  val lane : t -> Bound.t -> int

  (** [write fmt z rows keys off] writes [z]'s key, with the head
      [weight z rows], into [keys.(off) .. keys.(off + len fmt - 1)].
      [z] has [fmt]'s dimension.  Keys compare soundly only when written
      with the same row set, and with every row outside it infinite
      off the diagonal in both zones. *)
  val write : t -> zone -> int array -> int array -> int -> unit

  (** [ge fmt a ao b bo]: the key at [a.(ao)] dominates the one at
      [b.(bo)], head and every lane [>=].  One subtraction tests all
      the lanes of a word. *)
  val ge : t -> int array -> int -> int array -> int -> bool

  (** [hole fmt keys off] overwrites the key at [off] with one that
      dominates no key and that no key dominates: head [max_int] (no
      {!weight} reaches it) and an all-zero first word (the first lane
      of a non-empty zone, an upper bound, is never 0).  At dim 1 keys
      have no lanes and a hole dominates every key; there all non-empty
      zones are equal, so a store never kills and has no holes. *)
  val hole : t -> int array -> int -> unit

  (** [summary_clear fmt ~max ~min off] starts an empty block summary
      at [off] in both arrays: a max that dominates no key and a min
      that no key dominates. *)
  val summary_clear : t -> max:int array -> min:int array -> int -> unit

  (** [summary_add fmt ~max ~min off keys ko] widens the summary at
      [off] by the key at [keys.(ko)]: [max] becomes the lane-wise
      (and head) maximum of both, [min] the minimum, so [max] dominates
      every key added and every key added dominates [min]. *)
  val summary_add :
    t -> max:int array -> min:int array -> int -> int array -> int -> unit

  (** [scan fmt ~block ~keys ~bmax ~bmin ~len nk ~cover ~victim] is a
      subsumption pass over the [len] keys in [keys], newest (slot
      [len - 1]) first, for the newcomer key [nk].  Each full block of
      [block] slots has its summaries at [block index * len fmt] in
      [bmax]/[bmin]; the slots past the last full block are scanned one
      by one, then each block only in the directions its summaries
      allow.  [cover s] runs on a slot whose key dominates [nk] and
      [victim s] on one [nk] dominates, and only then; the pass stops
      at the first [cover] that returns [true], and the result is
      whether one did.  Holes ({!hole}) never pass a compare. *)
  val scan :
    t -> block:int -> keys:int array -> bmax:int array -> bmin:int array ->
    len:int -> int array -> cover:(int -> bool) -> victim:(int -> unit) ->
    bool
end

(** [to_ints z] is the raw encoded bound matrix, row-major, as a fresh
    array — the serialization counterpart of {!of_ints}.  The encoding
    is the internal one; treat it as opaque. *)
val to_ints : t -> int array

(** [of_ints ~dim m] rebuilds a zone from {!to_ints} output.  The matrix
    is trusted to be canonical (as every {!to_ints} result is); feeding
    a non-canonical matrix breaks inclusion tests and the exactness of
    {!extrapolate}.  [Mc.Explorer.admit_pre] relies on
    this: it extrapolates the recorded pre-extrapolation zone straight
    out of [of_ints], so a recording must hold canonical zones.
    @raise Invalid_argument when the length is not [dim * dim]. *)
val of_ints : dim:int -> int array -> t

(** Upper bound of clock [i] in the zone: the [(i, 0)] entry. *)
val sup_clock : t -> int -> Bound.t

(** Lower bound of clock [i]: [m] with strictness such that [x_i >= m]
    (or [> m]).  Returned as [(constant, strict)]. *)
val inf_clock : t -> int -> int * bool

(** [contains z values] tests membership of a concrete integer valuation
    ([values.(0)] must be 0).  Used by cross-checking tests. *)
val contains : t -> int array -> bool

val pp : ?names:string array -> unit -> Format.formatter -> t -> unit

(** A freelist of DBMs of one fixed dimension, for allocation-free
    scratch copies on hot paths (e.g. candidate firing in the zone
    explorer, where most copies die immediately on an unsatisfiable
    guard).  Not thread-safe; one pool per search.

    {b Ownership:} a zone obtained from {!Pool.copy} is exclusively the
    caller's until passed to {!Pool.release}; after release any
    reference to it is invalid (the matrix will be overwritten by a
    later {!Pool.copy}). *)
module Pool : sig
  type zone := t
  type t

  (** [create dim] is an empty pool of [dim]-dimensional zones. *)
  val create : int -> t

  val dim : t -> int

  (** [copy pool src] is a zone equal to [src], reusing a released
      matrix when one is available.  [src] must have the pool's
      dimension. *)
  val copy : t -> zone -> zone

  (** Return a zone to the freelist.  The caller must not touch it
      afterwards. *)
  val release : t -> zone -> unit
end
