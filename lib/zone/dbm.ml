type t = {
  n : int;  (* dimension including the reference clock *)
  m : int array;  (* n*n encoded bounds, row-major *)
}

let dim z = z.n

let idx z i j = (i * z.n) + j
let get z i j = z.m.(idx z i j)
let set z i j b = z.m.(idx z i j) <- b

let zero n =
  assert (n >= 1);
  { n; m = Array.make (n * n) Bound.zero }

let copy z = { n = z.n; m = Array.copy z.m }

let mark_empty z = set z 0 0 (Bound.lt 0)

let is_empty z = get z 0 0 < Bound.zero

let canonicalize z =
  let n = z.n in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = get z i k in
      if not (Bound.is_infinite dik) then
        for j = 0 to n - 1 do
          let through = Bound.add dik (get z k j) in
          if through < get z i j then set z i j through
        done
    done
  done;
  let negative_diagonal = ref false in
  for i = 0 to n - 1 do
    if get z i i < Bound.zero then negative_diagonal := true
  done;
  if !negative_diagonal then mark_empty z

let up z =
  if not (is_empty z) then
    for i = 1 to z.n - 1 do
      set z i 0 Bound.infinity
    done

let satisfiable z i j b =
  (not (is_empty z)) && Bound.add b (get z j i) >= Bound.zero

let constrain z i j b =
  if not (is_empty z) then begin
    if Bound.add b (get z j i) < Bound.zero then mark_empty z
    else if b < get z i j then begin
      set z i j b;
      (* O(n^2) re-closure through the tightened entry. *)
      let n = z.n in
      for k = 0 to n - 1 do
        let dki = get z k i in
        if not (Bound.is_infinite dki) then begin
          let via_i = Bound.add dki b in
          for l = 0 to n - 1 do
            let through = Bound.add via_i (get z j l) in
            if through < get z k l then set z k l through
          done
        end
      done
    end
  end

let reset z i =
  if not (is_empty z) then
    for j = 0 to z.n - 1 do
      if j <> i then begin
        set z i j (get z 0 j);
        set z j i (get z j 0)
      end
    done

let free z i =
  if not (is_empty z) then
    for j = 0 to z.n - 1 do
      if j <> i then begin
        set z i j Bound.infinity;
        set z j i (get z j 0)
      end
    done

let extrapolate z k =
  if not (is_empty z) then begin
    let n = z.n in
    assert (Array.length k = n && k.(0) = 0);
    let changed = ref false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let b = get z i j in
          if (not (Bound.is_infinite b)) && b > Bound.le k.(i) then begin
            set z i j Bound.infinity;
            changed := true
          end
          else if b < Bound.lt (-k.(j)) then begin
            set z i j (Bound.lt (-k.(j)));
            changed := true
          end
        end
      done
    done;
    if !changed then canonicalize z
  end

let extrapolate_lu z l u =
  if not (is_empty z) then begin
    let n = z.n in
    assert (Array.length l = n && Array.length u = n && l.(0) = 0 && u.(0) = 0);
    let changed = ref false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let b = get z i j in
          if i <> 0 && (not (Bound.is_infinite b)) && b > Bound.le l.(i)
          then begin
            set z i j Bound.infinity;
            changed := true
          end
          else if j <> 0 && b < Bound.lt (-u.(j)) then begin
            set z i j (Bound.lt (-u.(j)));
            changed := true
          end
        end
      done
    done;
    if !changed then canonicalize z
  end

let includes a b =
  assert (a.n = b.n);
  if is_empty b then true
  else if is_empty a then false
  else begin
    let ok = ref true in
    let i = ref 0 in
    let total = a.n * a.n in
    while !ok && !i < total do
      if b.m.(!i) > a.m.(!i) then ok := false;
      incr i
    done;
    !ok
  end

let equal a b =
  a.n = b.n && ((is_empty a && is_empty b) || a.m = b.m)

(* FNV-1a over the encoded bounds.  All empty zones of a dimension hash
   alike (they compare equal regardless of which entry went negative). *)
let hash z =
  if is_empty z then z.n land max_int
  else begin
    let h = ref (z.n + 0x811c9dc5) in
    for i = 0 to Array.length z.m - 1 do
      h := (!h lxor z.m.(i)) * 0x01000193
    done;
    !h land max_int
  end

(* Clamped sum of the encoded bounds: a dominance measure.  Clamping is
   monotone and [Bound.infinity] (= [max_int]) is the only encoding
   above the cap, so [includes a b] implies [weight a >= weight b], and
   equal weights with pointwise dominance force the zones equal.  The
   head of a subsumption key (below). *)
let weight_cap = 1 lsl 40

let weight z =
  let s = ref 0 in
  for i = 0 to Array.length z.m - 1 do
    let b = z.m.(i) in
    s := !s + (if b > weight_cap then weight_cap else b)
  done;
  !s

(* Key layout, [key_len n = 2n] ints: [head], then row 0 (entries
   (0, 0) .. (0, n-1)), then column 0 below the diagonal ((1, 0) ..
   (n-1, 0)).  For non-empty [a] and [b], [includes a b] is pointwise
   [b.m <= a.m], so with [head = weight] the key of [b] is <= the key of
   [a] at every position: a failed key compare refutes inclusion
   without touching the matrices. *)
let key_len n = 2 * n

let write_key z ~head keys off =
  let n = z.n in
  keys.(off) <- head;
  Array.blit z.m 0 keys (off + 1) n;
  for i = 1 to n - 1 do
    keys.(off + n + i) <- z.m.(i * n)
  done

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

  let copy p src =
    assert (src.n = p.p_dim);
    match p.p_free with
    | z :: rest ->
      p.p_free <- rest;
      Array.blit src.m 0 z.m 0 (Array.length src.m);
      z
    | [] -> base_copy src

  let release p z =
    assert (z.n = p.p_dim);
    p.p_free <- z :: p.p_free
end
