type t = {
  n : int;  (* dimension including the reference clock *)
  m : int array;  (* n*n encoded bounds, row-major *)
}

let dim z = z.n

let idx z i j = (i * z.n) + j
let get z i j = z.m.(idx z i j)

(* The hot kernels read [Bound]'s encoding directly: [infinity] is
   [max_int], [le c = 2c + 1], [lt c = 2c].  Dune's dev profile compiles
   with [-opaque], so a call to [Bound.add] or [Bound.is_infinite] is
   never inlined across the module boundary, and those calls sat in
   every inner iteration.  The tests pin these copies to [Bound]. *)
let inf = max_int
let le_zero = 1 (* le 0, i.e. Bound.zero *)
let[@inline] le c = (2 * c) + 1
let[@inline] lt c = 2 * c

(* [Bound.add] of two finite bounds: the constants add and the
   strictness bits AND.  With [a = 2ca + sa] and [b = 2cb + sb],
   [a + b - (sa lor sb) = 2 (ca + cb) + (sa land sb)]. *)
let[@inline] add a b = a + b - ((a lor b) land 1)

let zero n =
  assert (n >= 1);
  { n; m = Array.make (n * n) le_zero }

let copy z = { n = z.n; m = Array.copy z.m }

let mark_empty z = z.m.(0) <- lt 0

let is_empty z = z.m.(0) < le_zero

(* Floyd-Warshall, pivot-major; an infinite operand is skipped, as its
   sum could never tighten anything. *)
let canonicalize z =
  let n = z.n and m = z.m in
  for k = 0 to n - 1 do
    let rk = k * n in
    for i = 0 to n - 1 do
      let ri = i * n in
      let dik = m.(ri + k) in
      if dik <> inf then
        for j = 0 to n - 1 do
          let dkj = m.(rk + j) in
          if dkj <> inf then begin
            let through = add dik dkj in
            if through < m.(ri + j) then m.(ri + j) <- through
          end
        done
    done
  done;
  let negative_diagonal = ref false in
  for i = 0 to n - 1 do
    if m.((i * n) + i) < le_zero then negative_diagonal := true
  done;
  if !negative_diagonal then mark_empty z

(* The kernels below read and write through [Array.unsafe_get] and
   [unsafe_set].  Every zone's matrix has length [n * n] ([zero],
   [copy] and [of_ints] make no other), so an index [r * n + c] with
   [r] and [c] in [0 .. n - 1] is in range; each kernel checks its
   clock arguments against [n] once, before its loops.  The [int array]
   annotations matter: on an ['a array] the access would test for a
   float array at run time. *)
let[@inline] at (m : int array) p = Array.unsafe_get m p
let[@inline] put (m : int array) p b = Array.unsafe_set m p b

let up z =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    (* rows 1 .. n - 1 of column 0 *)
    for i = 1 to n - 1 do
      put m (i * n) inf
    done
  end

(* Row [k]'s column-0 entry in [up_to]: the least of [start] and every
   [m[k][clocks.(q)] + bounds.(q)]. *)
let[@inline] column0 m n k clocks bounds start =
  let rk = k * n and c = ref start in
  for q = 0 to Array.length clocks - 1 do
    let d = at m (rk + Array.unsafe_get clocks q) in
    if d <> inf then begin
      let through = add d (Array.unsafe_get bounds q) in
      if through < !c then c := through
    end
  done;
  !c

(* [up] and then [constrain z clocks.(q) 0 bounds.(q)] for every [q], in
   one pass.  After [up], column 0 is infinite below row 0, so the new
   upper bounds are the only edges into clock 0, and a shortest path
   enters clock 0 at most once: the closed column 0 is
   [m[k][0] = min_q (m[k][i_q] + b_q)] ([le 0] also a candidate at
   [k = 0]), and every other entry [m[k][l]] is the shorter of itself
   and [m[k][0] + m[0][l]].  A negative cycle passes through clock 0,
   so the zone is empty iff the new [m[0][0]] is below [le 0]; when it
   is not, [m[0][0] = le 0] and row 0 relaxes to itself, so only rows
   1 .. n - 1 are relaxed. *)
let up_to z clocks bounds =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    let nb = Array.length clocks in
    if Array.length bounds <> nb then
      invalid_arg "Dbm.up_to: clocks and bounds differ in length";
    for q = 0 to nb - 1 do
      if clocks.(q) < 1 || clocks.(q) >= n || bounds.(q) = inf then
        invalid_arg "Dbm.up_to: not a finite bound on a clock"
    done;
    (* [clocks] is in [1 .. n - 1], so each read [k * n + clocks.(q)]
       is in range *)
    let c0 = column0 m n 0 clocks bounds le_zero in
    if c0 < le_zero then mark_empty z
    else
      for k = 1 to n - 1 do
        let ck = column0 m n k clocks bounds inf in
        let rk = k * n in
        put m rk ck;
        if ck <> inf then
          for l = 1 to n - 1 do
            let d0l = at m l in
            if d0l <> inf then begin
              let through = add ck d0l in
              if through < at m (rk + l) then put m (rk + l) through
            end
          done
      done
  end

let satisfiable z i j b =
  (not (is_empty z))
  &&
  let dji = get z j i in
  b = inf || dji = inf || add b dji >= le_zero

let constrain z i j b =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    assert (0 <= i && i < n && 0 <= j && j < n);
    let dji = at m ((j * n) + i) in
    if b <> inf && dji <> inf && add b dji < le_zero then mark_empty z
    else if b < at m ((i * n) + j) then begin
      put m ((i * n) + j) b;
      (* O(n^2) re-closure through the tightened entry; [i], [j], [k]
         and [l] are in [0 .. n - 1]. *)
      let rj = j * n in
      for k = 0 to n - 1 do
        let rk = k * n in
        let dki = at m (rk + i) in
        if dki <> inf then begin
          let via_i = add dki b in
          for l = 0 to n - 1 do
            let djl = at m (rj + l) in
            if djl <> inf then begin
              let through = add via_i djl in
              if through < at m (rk + l) then put m (rk + l) through
            end
          done
        end
      done
    end
  end

let reset z i =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    assert (0 <= i && i < n);
    let ri = i * n in
    (* [i] and [j] are in [0 .. n - 1] *)
    for j = 0 to n - 1 do
      if j <> i then begin
        put m (ri + j) (at m j);
        put m ((j * n) + i) (at m (j * n))
      end
    done
  end

let free z i =
  if not (is_empty z) then begin
    let n = z.n and m = z.m in
    assert (0 <= i && i < n);
    let ri = i * n in
    (* [i] and [j] are in [0 .. n - 1] *)
    for j = 0 to n - 1 do
      if j <> i then begin
        put m (ri + j) inf;
        put m ((j * n) + i) (at m (j * n))
      end
    done
  end

(* --- row sets -------------------------------------------------------- *)

(* Every row of the dimensions a search uses, built once: whole-matrix
   callers of the row-taking kernels pass these shared arrays. *)
let every_row = Array.init 33 (fun n -> Array.init n Fun.id)

let all_rows n =
  if n < 0 then invalid_arg "Dbm.all_rows: negative dimension";
  if n < Array.length every_row then every_row.(n) else Array.init n Fun.id

(* A row set is row 0, then rows strictly increasing below [n]:
   [extrapolate] indexes with it unchecked and relies on that order, so
   it checks the whole set once, before its loops. *)
let check_rows fn n (rows : int array) =
  let r = Array.length rows in
  if r = 0 || rows.(0) <> 0 then
    invalid_arg (fn ^ ": rows must start with row 0");
  for p = 1 to r - 1 do
    if rows.(p) <= rows.(p - 1) || rows.(p) >= n then
      invalid_arg (fn ^ ": rows must increase within the dimension")
  done

(* Re-closure after an extrapolation loosened the entries listed in
   [cols]/[ends] (the columns of row [rows.(p)] are [cols.(ends.(p-1))]
   up to [cols.(ends.(p) - 1)]) of a canonical non-empty zone M, giving
   M'.  An untouched entry (i, j) never changes: a path in M' is at
   least as long as the same path in M, and M is closed, so the path is
   at least M[i][j] = M'[i][j].  Floyd-Warshall therefore only ever
   writes touched entries, and running each pivot over those alone
   yields the same closed matrix in dim * |touched| steps instead of
   dim^3.  A row outside [rows] is infinite off the diagonal, so as a
   pivot [k] it offers only M[k][k] = [le 0], which shortens nothing,
   and it holds no touched entry: the pivots and rows are [rows] alone.
   No cycle gets shorter, so the zone stays non-empty and the diagonal
   needs no check. *)
let reclose_touched z rows cols ends =
  let n = z.n and m = z.m and nr = Array.length rows in
  (* [rows] passed [check_rows]; [ends] holds [nr] offsets into [cols],
     whose entries are columns in [0 .. n - 1] ([extrapolate] wrote
     both) *)
  for pk = 0 to nr - 1 do
    let k = Array.unsafe_get rows pk in
    let rk = k * n in
    let first = ref 0 in
    for p = 0 to nr - 1 do
      let stop = Array.unsafe_get ends p in
      if !first < stop then begin
        let ri = Array.unsafe_get rows p * n in
        let dik = at m (ri + k) in
        if dik <> inf then
          for t = !first to stop - 1 do
            let j = Array.unsafe_get cols t in
            let dkj = at m (rk + j) in
            if dkj <> inf then begin
              let through = add dik dkj in
              if through < at m (ri + j) then put m (ri + j) through
            end
          done;
        first := stop
      end
    done
  done

(* [extrapolate]'s scratch, grown to the largest dimension it has seen:
   the touched list and the columns whose row-0 entry was raised.  It is
   per domain because [Analysis.Pool.map] runs several searches at
   once, one on each domain. *)
type touched = {
  mutable cols : int array;
  mutable ends : int array;
  mutable raised : int array;
}

let touched_key =
  Domain.DLS.new_key (fun () -> { cols = [||]; ends = [||]; raised = [||] })

(* ExtraM on the rows in [rows]: an entry above [le k.(i)] is dropped to
   infinity, one below [lt (-k.(j))] raised to it; then only the touched
   entries are re-closed.

   In a canonical zone whose row 0 is at most [le 0] (clocks are
   non-negative), M[i][j] <= M[i][0] + M[0][j] <= M[i][0] and
   M[0][j] <= M[0][i] + M[i][j] <= M[i][j].  So an entry of row [i] can
   exceed [le k.(i)] only if M[i][0] does, and an entry of column [j]
   can fall below [lt (-k.(j))] only if M[0][j] does.  Row 0 is scanned
   in full and its raised columns kept; a row whose column-0 entry is
   over its constant is scanned in full, any other only at those
   columns.  A row 0 above [le 0] (a matrix no operation here builds)
   voids both lemmas, and then every row in [rows] is scanned in
   full. *)
let extrapolate z k rows =
  assert (Array.length k = z.n && k.(0) = 0);
  check_rows "Dbm.extrapolate" z.n rows;
  if not (is_empty z) then begin
    let n = z.n and m = z.m and nr = Array.length rows in
    let scratch = Domain.DLS.get touched_key in
    if Array.length scratch.ends < n then begin
      scratch.cols <- Array.make (n * n) 0;
      scratch.ends <- Array.make n 0;
      scratch.raised <- Array.make n 0
    end;
    let cols = scratch.cols and ends = scratch.ends
    and raised = scratch.raised in
    (* [k] has [n] entries (the assert), [rows] passed [check_rows],
       [cols] has at least [n * n] entries, [ends] and [raised] at least
       [n], and at most one column is touched per entry *)
    let touched = ref 0 and nraised = ref 0 and whole = ref false in
    for j = 1 to n - 1 do
      let b = at m j in
      if b > le_zero then begin
        whole := true;
        if b <> inf then begin
          put m j inf;
          Array.unsafe_set cols !touched j;
          incr touched
        end
      end
      else begin
        let below = lt (- at k j) in
        if b < below then begin
          put m j below;
          Array.unsafe_set cols !touched j;
          incr touched;
          Array.unsafe_set raised !nraised j;
          incr nraised
        end
      end
    done;
    Array.unsafe_set ends 0 !touched;
    for p = 1 to nr - 1 do
      let i = Array.unsafe_get rows p in
      let ri = i * n and above = le (at k i) in
      if !whole || at m ri > above then
        for j = 0 to n - 1 do
          if i <> j then begin
            let b = at m (ri + j) in
            let b' =
              if b <> inf && b > above then inf
              else
                let below = lt (- at k j) in
                if b < below then below else b
            in
            if b' <> b then begin
              put m (ri + j) b';
              Array.unsafe_set cols !touched j;
              incr touched
            end
          end
        done
      else
        for q = 0 to !nraised - 1 do
          let j = Array.unsafe_get raised q in
          if i <> j then begin
            let below = lt (- at k j) in
            if at m (ri + j) < below then begin
              put m (ri + j) below;
              Array.unsafe_set cols !touched j;
              incr touched
            end
          end
        done;
      Array.unsafe_set ends p !touched
    done;
    if !touched > 0 then reclose_touched z rows cols ends
  end

(* The position after the run of consecutive rows that starts at
   [rows.(p)]: the run occupies the flat span from [rows.(p) * n] up to
   [rows.(q - 1) * n + n].  In an increasing set the rest is one run
   when its last row is as far from [rows.(p)] as its position, as for
   {!all_rows}, whose rows are one span, the whole matrix.  The run's
   rows are checked against the dimension, so the kernels that read a
   row set in one pass need no check of their own. *)
let[@inline] run_end fn n (rows : int array) p =
  let nr = Array.length rows in
  let q = ref nr in
  if rows.(nr - 1) - rows.(p) <> nr - 1 - p then begin
    q := p + 1;
    while !q < nr && rows.(!q) = rows.(!q - 1) + 1 do
      incr q
    done
  end;
  if rows.(p) < 0 || rows.(!q - 1) >= n then
    invalid_arg (fn ^ ": row outside the dimension");
  !q

let includes_rows a b rows =
  assert (a.n = b.n);
  if is_empty b then true
  else if is_empty a then false
  else begin
    (* both matrices have length [n * n], and [run_end] checks each row *)
    let n = a.n and am = a.m and bm = b.m in
    let ok = ref true and p = ref 0 in
    while !ok && !p < Array.length rows do
      let q = run_end "Dbm.includes_rows" n rows !p in
      let i = ref (rows.(!p) * n) and stop = (rows.(q - 1) + 1) * n in
      while !ok && !i < stop do
        if at bm !i > at am !i then ok := false;
        incr i
      done;
      p := q
    done;
    !ok
  end

let includes a b = includes_rows a b (all_rows a.n)

let equal a b =
  a.n = b.n && ((is_empty a && is_empty b) || a.m = b.m)

(* Clamped sum of the encoded bounds of the rows in [rows]: a dominance
   measure.  Clamping is monotone and [Bound.infinity] (= [max_int]) is
   the only encoding above the cap, so [includes a b] implies
   [weight a rows >= weight b rows], and equal weights with pointwise
   dominance force the rows equal.  The head of a key (below). *)
let weight_cap = 1 lsl 40

let weight z rows =
  let n = z.n and m = z.m and s = ref 0 and p = ref 0 in
  while !p < Array.length rows do
    (* [run_end] checks each row *)
    let q = run_end "Dbm.weight" n rows !p in
    for i = rows.(!p) * n to ((rows.(q - 1) + 1) * n) - 1 do
      let b = at m i in
      s := !s + (if b > weight_cap then weight_cap else b)
    done;
    p := q
  done;
  !s

(* --- subsumption keys -------------------------------------------------- *)

(* A key is the zone's {!weight} over a row set as a full int, then its
   clock bounds packed into lanes: the upper bounds (column 0) from the
   highest clock down, then the lower bounds (row 0) likewise; entry
   (0, 0) is [le 0] in every non-empty zone and is left out.  A lane is [width] bits, the
   top one a guard bit that is 0 in every key; [lanes] lanes share an
   int, lane [q] of a word at bits [q * width ..].

   The lane map is monotone: a finite bound [b] becomes [b + bias]
   clamped to [0 .. top - 1], and [Bound.infinity] becomes [top], the
   largest [width - 1]-bit value.  [bias] is twice the largest constant
   [c] the searched zones compare against, so every bound of an
   extrapolated zone, from [lt (-c)] up to [le c], maps unclamped.
   Since [includes a b] is pointwise [b.m <= a.m] and the map is
   monotone, it implies [b]'s lanes are [<=] [a]'s, and the {!weight}
   keeps that at the head too, over any row set both keys were written
   with.  Clamping only merges values,
   so a bound outside the range costs pruning power, never soundness.

   With [G] the guard bits of a word, [(a lor G) - b] subtracts lane by
   lane without borrowing across lanes (each lane computes
   [2^(width-1) + a_q - b_q >= 1]), and lane [q]'s guard bit survives
   iff [a_q >= b_q]: one subtraction tests a whole word. *)
module Key = struct
  type zone = t

  type t = {
    k_dim : int;
    width : int;
    lanes : int;
    words : int;
    bias : int;
    top : int;
    guard : int;  (* the guard bits of every lane of a word *)
    value : int;  (* the value bits of every lane of a word *)
  }

  let bits_for v =
    let rec go b = if 1 lsl b > v then b else go (b + 1) in
    go 1

  let make ~dim ~max_const =
    assert (dim >= 1);
    let c = min (max max_const 0) ((1 lsl 28) - 1) in
    (* finite lane values run to [4c + 1] and [top] sits above them *)
    let width = bits_for ((4 * c) + 2) + 1 in
    let lanes = Sys.int_size / width in
    let words = max 1 ((2 * (dim - 1) + lanes - 1) / lanes) in
    let guard = ref 0 in
    for q = 0 to lanes - 1 do
      guard := !guard lor (1 lsl ((q * width) + width - 1))
    done;
    let guard = !guard in
    { k_dim = dim; width; lanes; words; bias = 2 * c;
      top = (1 lsl (width - 1)) - 1; guard;
      value = guard - (guard lsr (width - 1)) }

  let len f = 1 + f.words
  let width f = f.width
  let lanes f = f.lanes

  let[@inline] lane f b =
    if b = inf then f.top
    else if b >= f.top - 1 - f.bias then f.top - 1
    else if b <= - f.bias then 0
    else b + f.bias

  (* Lane [q] is column 0 of clock [n - 1 - q], then row 0 of clock
     [2n - 2 - q]; the words fill from bit 0 up, with no division. *)
  let write f (z : zone) rows keys off =
    assert (z.n = f.k_dim);
    let n = z.n and m = z.m in
    keys.(off) <- weight z rows;
    let w = ref (off + 1) and acc = ref 0 and shift = ref 0 in
    let full = f.lanes * f.width in
    for q = 0 to (2 * (n - 1)) - 1 do
      let b = if q < n - 1 then m.((n - 1 - q) * n) else m.((2 * n) - 2 - q) in
      acc := !acc lor (lane f b lsl !shift);
      shift := !shift + f.width;
      if !shift = full then begin
        keys.(!w) <- !acc;
        incr w;
        acc := 0;
        shift := 0
      end
    done;
    while !w <= off + f.words do
      keys.(!w) <- !acc;
      incr w;
      acc := 0
    done

  (* A plain loop, not a local closure, inlined into {!scan} below:
     this is the innermost loop of the search. *)
  let[@inline] ge f (a : int array) ao (b : int array) bo =
    Array.unsafe_get a ao >= Array.unsafe_get b bo
    &&
    let g = f.guard and stop = f.words in
    let p = ref 1 in
    while
      !p <= stop
      && ((Array.unsafe_get a (ao + !p) lor g) - Array.unsafe_get b (bo + !p))
         land g
         = g
    do
      incr p
    done;
    !p > stop

  (* No weight reaches [max_int], so no key dominates a hole.  A non-empty
     zone's first lane, the upper bound of clock [dim - 1], is at least
     [le 0] and maps above 0, so a hole's all-zero first word dominates
     no key.  (At dim 1 there are no lanes, but every non-empty zone is
     equal there, so a store never kills an entry and makes no hole.) *)
  let hole f keys off =
    keys.(off) <- max_int;
    for w = 1 to f.words do
      keys.(off + w) <- 0
    done

  let summary_clear f ~max ~min off =
    max.(off) <- min_int;
    min.(off) <- max_int;
    for w = 1 to f.words do
      max.(off + w) <- 0;
      min.(off + w) <- f.value
    done

  (* The value bits of every lane of [a] that is [>=] the same lane of
     [b]: each surviving guard bit, less one. *)
  let ge_mask f a b =
    let t = ((a lor f.guard) - b) land f.guard in
    t - (t lsr (f.width - 1))

  let summary_add f ~max ~min off (keys : int array) ko =
    let k = keys.(ko) in
    if k > max.(off) then max.(off) <- k;
    if k < min.(off) then min.(off) <- k;
    for w = 1 to f.words do
      let k = keys.(ko + w) and hi = max.(off + w) and lo = min.(off + w) in
      let m = ge_mask f hi k in
      max.(off + w) <- (hi land m) lor (k land lnot m);
      let m = ge_mask f k lo in
      min.(off + w) <- (lo land m) lor (k land lnot m)
    done

  (* Newest first: the tail slot by slot, then each full block of
     [block] slots, entered only in the directions its summaries allow
     ([up]: the block max dominates [nk], so a slot may cover; [down]:
     [nk] dominates the block min, so a slot may be a victim).  Every
     [ge] here is inlined, so the loop makes no call until a key compare
     passes. *)
  let scan f ~block ~keys ~bmax ~bmin ~len nk ~cover ~victim =
    let klen = 1 + f.words in
    let covered = ref false and i = ref (len - 1) and b = ref (len / block) in
    let lo = ref (!b * block) and up = ref true and down = ref true in
    while (not !covered) && !i >= 0 do
      if !i < !lo then begin
        decr b;
        lo := !b * block;
        up := ge f bmax (!b * klen) nk 0;
        down := ge f nk 0 bmin (!b * klen);
        if not (!up || !down) then i := !lo - 1
      end
      else begin
        let off = !i * klen in
        if !up && ge f keys off nk 0 && cover !i then covered := true
        else begin
          if !down && ge f nk 0 keys off then victim !i;
          decr i
        end
      end
    done;
    !covered
end

let to_ints z = Array.copy z.m

let of_ints ~dim m =
  if dim < 1 || Array.length m <> dim * dim then
    invalid_arg "Dbm.of_ints: length does not match dimension";
  { n = dim; m = Array.copy m }

let sup_clock z i = get z i 0

let inf_clock z i =
  let b = get z 0 i in
  (-Bound.constant b, Bound.is_strict b)

let contains z values =
  assert (Array.length values = z.n && values.(0) = 0);
  if is_empty z then false
  else begin
    let ok = ref true in
    for i = 0 to z.n - 1 do
      for j = 0 to z.n - 1 do
        let b = get z i j in
        if not (Bound.is_infinite b) then begin
          let diff = values.(i) - values.(j) in
          let fits =
            if Bound.is_strict b then diff < Bound.constant b
            else diff <= Bound.constant b
          in
          if not fits then ok := false
        end
      done
    done;
    !ok
  end

let pp ?names () ppf z =
  if is_empty z then Fmt.string ppf "empty"
  else begin
    let name i =
      match names with
      | Some arr when i < Array.length arr -> arr.(i)
      | Some _ | None -> if i = 0 then "0" else Fmt.str "x%d" i
    in
    let first = ref true in
    for i = 0 to z.n - 1 do
      for j = 0 to z.n - 1 do
        if i <> j then begin
          let b = get z i j in
          if not (Bound.is_infinite b) then begin
            if not !first then Fmt.string ppf " && ";
            first := false;
            if j = 0 then Fmt.pf ppf "%s %a" (name i) Bound.pp b
            else if i = 0 then
              Fmt.pf ppf "-%s %a" (name j) Bound.pp b
            else Fmt.pf ppf "%s - %s %a" (name i) (name j) Bound.pp b
          end
        end
      done
    done;
    if !first then Fmt.string ppf "true"
  end

(* --- scratch pool ----------------------------------------------------- *)

module Pool = struct
  type zone = t

  type t = {
    p_dim : int;
    mutable p_free : zone list;
  }

  let create p_dim =
    assert (p_dim >= 1);
    { p_dim; p_free = [] }

  let dim p = p.p_dim

  let base_copy = copy

  (* A typed loop, not [Array.blit]: a pooled matrix lives in the major
     heap, where the polymorphic blit runs [caml_modify] on every entry;
     stores into an [int array] need no write barrier. *)
  let copy p src =
    assert (src.n = p.p_dim);
    match p.p_free with
    | z :: rest ->
      p.p_free <- rest;
      let s = src.m and d = z.m in
      for i = 0 to Array.length s - 1 do
        Array.unsafe_set d i (Array.unsafe_get s i)
      done;
      z
    | [] -> base_copy src

  let release p z =
    assert (z.n = p.p_dim);
    p.p_free <- z :: p.p_free
end
