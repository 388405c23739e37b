(* Unit and property tests for difference bound matrices.

   The property tests cross-check symbolic zone operations against concrete
   integer valuations: membership must be preserved/reflected the way the
   operation's semantics dictates. *)

open Zone

let test_bound_encoding () =
  Alcotest.(check bool) "lt tighter than le" true (Bound.lt 5 < Bound.le 5);
  Alcotest.(check bool) "le 5 tighter than lt 6" true (Bound.le 5 < Bound.lt 6);
  Alcotest.(check int) "constant of le" 7 (Bound.constant (Bound.le 7));
  Alcotest.(check int) "constant of negative lt" (-4)
    (Bound.constant (Bound.lt (-4)));
  Alcotest.(check bool) "strictness" true (Bound.is_strict (Bound.lt 3));
  Alcotest.(check bool) "non-strict" false (Bound.is_strict (Bound.le 3))

let test_bound_add () =
  Alcotest.(check int) "le+le" (Bound.le 5) (Bound.add (Bound.le 2) (Bound.le 3));
  Alcotest.(check int) "le+lt" (Bound.lt 5) (Bound.add (Bound.le 2) (Bound.lt 3));
  Alcotest.(check int) "lt+lt" (Bound.lt 5) (Bound.add (Bound.lt 2) (Bound.lt 3));
  Alcotest.(check int) "inf absorbs" Bound.infinity
    (Bound.add Bound.infinity (Bound.le 3));
  Alcotest.(check int) "negative" (Bound.le (-1))
    (Bound.add (Bound.le (-3)) (Bound.le 2))

let test_bound_negate () =
  Alcotest.(check int) "negate le" (Bound.lt (-5)) (Bound.negate (Bound.le 5));
  Alcotest.(check int) "negate lt" (Bound.le (-5)) (Bound.negate (Bound.lt 5))

let test_zero_zone () =
  let z = Dbm.zero 3 in
  Alcotest.(check bool) "non-empty" false (Dbm.is_empty z);
  Alcotest.(check bool) "origin inside" true (Dbm.contains z [| 0; 0; 0 |]);
  Alcotest.(check bool) "off-origin outside" false (Dbm.contains z [| 0; 1; 0 |])

let test_up_then_constrain () =
  let z = Dbm.zero 3 in
  Dbm.up z;
  Alcotest.(check bool) "diagonal point inside after up" true
    (Dbm.contains z [| 0; 4; 4 |]);
  Alcotest.(check bool) "asymmetric point outside" false
    (Dbm.contains z [| 0; 4; 2 |]);
  (* constrain x1 <= 3 *)
  Dbm.constrain z 1 0 (Bound.le 3);
  Alcotest.(check bool) "x1=3 inside" true (Dbm.contains z [| 0; 3; 3 |]);
  Alcotest.(check bool) "x1=4 outside" false (Dbm.contains z [| 0; 4; 4 |])

let test_constrain_empties () =
  let z = Dbm.zero 2 in
  (* x1 >= 5 contradicts x1 = 0: 0 - x1 <= -5 *)
  Dbm.constrain z 0 1 (Bound.le (-5));
  Alcotest.(check bool) "empty" true (Dbm.is_empty z)

let test_satisfiable_no_mutation () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Alcotest.(check bool) "x1 >= 5 satisfiable" true
    (Dbm.satisfiable z 0 1 (Bound.le (-5)));
  Alcotest.(check bool) "unchanged" true (Dbm.contains z [| 0; 0 |])

let test_reset () =
  let z = Dbm.zero 3 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 10);
  Dbm.reset z 2;
  Alcotest.(check bool) "x2 = 0, x1 free up to 10" true
    (Dbm.contains z [| 0; 7; 0 |]);
  Alcotest.(check bool) "x2 > 0 excluded" false (Dbm.contains z [| 0; 7; 1 |])

let test_free () =
  let z = Dbm.zero 3 in
  (* x1 = x2 = 0; free x1 *)
  Dbm.free z 1;
  Alcotest.(check bool) "x1 arbitrary" true (Dbm.contains z [| 0; 42; 0 |]);
  Alcotest.(check bool) "x2 still 0" false (Dbm.contains z [| 0; 42; 1 |])

let test_inclusion () =
  let small = Dbm.zero 2 in
  let big = Dbm.zero 2 in
  Dbm.up big;
  Alcotest.(check bool) "zero within up" true (Dbm.includes big small);
  Alcotest.(check bool) "up not within zero" false (Dbm.includes small big);
  Alcotest.(check bool) "reflexive" true (Dbm.includes big big)

let test_empty_inclusion () =
  let empty = Dbm.zero 2 in
  Dbm.constrain empty 0 1 (Bound.le (-1));
  let z = Dbm.zero 2 in
  Alcotest.(check bool) "empty included everywhere" true (Dbm.includes z empty);
  Alcotest.(check bool) "nonempty not included in empty" false
    (Dbm.includes empty z)

let test_sup_inf () =
  let z = Dbm.zero 3 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 9);
  Dbm.constrain z 0 1 (Bound.lt (-2));
  Alcotest.(check int) "sup x1" (Bound.le 9) (Dbm.sup_clock z 1);
  let lo, strict = Dbm.inf_clock z 1 in
  Alcotest.(check (pair int bool)) "inf x1" (2, true) (lo, strict);
  (* x2 tracked x1 since both started at 0, so it inherits the bound... *)
  Alcotest.(check int) "sup x2 correlates with x1" (Bound.le 9)
    (Dbm.sup_clock z 2);
  (* ...until it is freed. *)
  Dbm.free z 2;
  Alcotest.(check int) "sup x2 unbounded after free" Bound.infinity
    (Dbm.sup_clock z 2)

let test_extrapolate_drops_big_bounds () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 500);
  Dbm.extrapolate z [| 0; 10 |] (Dbm.all_rows 2);
  Alcotest.(check int) "bound beyond k dropped" Bound.infinity
    (Dbm.sup_clock z 1)

let test_extrapolate_keeps_small_bounds () =
  let z = Dbm.zero 2 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 5);
  Dbm.extrapolate z [| 0; 10 |] (Dbm.all_rows 2);
  Alcotest.(check int) "bound within k kept" (Bound.le 5) (Dbm.sup_clock z 1)

(* Regression: two empty DBMs of different dimensions are not equal (and
   an empty zone never equals a non-empty one). *)
let test_equal_requires_dimension () =
  let empty n =
    let z = Dbm.zero n in
    Dbm.constrain z 0 1 (Bound.le (-1));
    z
  in
  Alcotest.(check bool) "both empty, same dim" true (Dbm.equal (empty 2) (empty 2));
  Alcotest.(check bool) "both empty, dim 2 vs 3" false
    (Dbm.equal (empty 2) (empty 3));
  Alcotest.(check bool) "empty vs non-empty" false
    (Dbm.equal (empty 2) (Dbm.zero 2))

(* --- property tests --------------------------------------------------- *)

(* Random zones come from the shared generators in [Gen]: a trail of
   ups/resets/constraints applied to the zero zone, printed on failure. *)

let dims = Gen.dbm_dims
let build = Gen.build_dbm
let arb_ops = Gen.arb_dbm_ops

let arb_point =
  QCheck.make
    ~print:(Fmt.to_to_string Fmt.(Dump.array int))
    QCheck.Gen.(
      map
        (fun l -> Array.of_list (0 :: l))
        (list_size (return (dims - 1)) (int_range 0 10)))

(* Constraining is intersection: a point is in the result iff it was in the
   zone and satisfies the constraint. *)
let prop_constrain_is_intersection =
  QCheck.Test.make ~name:"constrain = set intersection" ~count:1000
    (QCheck.triple arb_ops arb_point
       (QCheck.quad (QCheck.int_range 0 (dims - 1)) (QCheck.int_range 0 (dims - 1))
          QCheck.bool (QCheck.int_range (-8) 8)))
    (fun (ops, pt, (i, j, strict, n)) ->
      QCheck.assume (i <> j);
      let z = build ops in
      let before = Dbm.contains z pt in
      let b = if strict then Bound.lt n else Bound.le n in
      let diff = pt.(i) - pt.(j) in
      let sat = if strict then diff < n else diff <= n in
      Dbm.constrain z i j b;
      Dbm.contains z pt = (before && sat))

(* Delay: any point in the zone, shifted uniformly forward, is in up(Z). *)
let prop_up_closure =
  QCheck.Test.make ~name:"up contains forward shifts" ~count:1000
    (QCheck.triple arb_ops arb_point (QCheck.int_range 0 10))
    (fun (ops, pt, d) ->
      let z = build ops in
      QCheck.assume (Dbm.contains z pt);
      Dbm.up z;
      let shifted = Array.mapi (fun i v -> if i = 0 then 0 else v + d) pt in
      Dbm.contains z shifted)

(* Reset: membership transfers to the reset point. *)
let prop_reset_membership =
  QCheck.Test.make ~name:"reset maps members" ~count:1000
    (QCheck.triple arb_ops arb_point (QCheck.int_range 1 (dims - 1)))
    (fun (ops, pt, i) ->
      let z = build ops in
      QCheck.assume (Dbm.contains z pt);
      Dbm.reset z i;
      let pt' = Array.copy pt in
      pt'.(i) <- 0;
      Dbm.contains z pt')

(* Inclusion is sound w.r.t. membership. *)
let prop_inclusion_sound =
  QCheck.Test.make ~name:"includes implies membership transfer" ~count:1000
    (QCheck.triple arb_ops arb_ops arb_point)
    (fun (ops1, ops2, pt) ->
      let a = build ops1 and b = build ops2 in
      QCheck.assume (Dbm.includes a b);
      QCheck.assume (Dbm.contains b pt);
      Dbm.contains a pt)

(* Canonicalize is idempotent on the matrices our ops produce. *)
let prop_canonical_stable =
  QCheck.Test.make ~name:"operations keep zones canonical" ~count:500 arb_ops
    (fun ops ->
      let z = build ops in
      let z' = Dbm.copy z in
      Dbm.canonicalize z';
      Dbm.equal z z')

(* Mutual inclusion is equality (the antisymmetry the subsumption store
   relies on). *)
let prop_mutual_inclusion_is_equal =
  QCheck.Test.make ~name:"includes both ways iff equal" ~count:1000
    (QCheck.pair Gen.arb_dbm_ops Gen.arb_dbm_ops)
    (fun (ops1, ops2) ->
      let a = build ops1 and b = build ops2 in
      (Dbm.includes a b && Dbm.includes b a) = Dbm.equal a b)

(* Extrapolation only widens: the abstracted zone includes the original. *)
let prop_extrapolate_preserves_inclusion =
  QCheck.Test.make ~name:"extrapolate includes original" ~count:1000
    (QCheck.pair Gen.arb_dbm_ops Gen.arb_dbm_ceilings)
    (fun (ops, k) ->
      let z = build ops in
      let z' = Dbm.copy z in
      Dbm.extrapolate z' k (Dbm.all_rows (Dbm.dim z'));
      Dbm.includes z' z)

(* --- subsumption prefilter ---------------------------------------------- *)

(* The explorer tests [includes a b] only when [a]'s weight and key
   dominate [b]'s, so the prefilter must never reject a true inclusion.
   Random pairs rarely nest, so [b] is also derived from [a] by further
   constraints, which keeps it inside [a] by construction.  The random
   zones' constants lie within 8: keys are tested in a layout that fits
   them and in one that clamps every bound past 1. *)

let weight z = Dbm.weight z (Dbm.all_rows (Dbm.dim z))

let key fmt z =
  let k = Array.make (Dbm.Key.len fmt) 0 in
  Dbm.Key.write fmt z (Dbm.all_rows (Dbm.dim z)) k 0;
  k

let fitting = Dbm.Key.make ~dim:Gen.dbm_dims ~max_const:8
let clamping = Dbm.Key.make ~dim:Gen.dbm_dims ~max_const:1

let dominates fmt a b = Dbm.Key.ge fmt (key fmt a) 0 (key fmt b) 0

let arb_nested =
  let constrain_only =
    QCheck.Gen.(
      list_size (int_range 0 4) Gen.gen_dbm_op
      |> map (List.filter (function Gen.Op_constrain _ -> true | _ -> false)))
  in
  QCheck.make
    ~print:(fun (a, b) ->
      Fmt.str "a: %a; b = a then: %a"
        Fmt.(list ~sep:semi Gen.pp_dbm_op) a
        Fmt.(list ~sep:semi Gen.pp_dbm_op) b)
    QCheck.Gen.(pair (QCheck.gen Gen.arb_dbm_ops) constrain_only)

(* [prop a b] over pairs with [b] non-empty and included in [a]: two
   random zones that happen to nest, and [a] with a narrowing of it. *)
let included_pairs name prop =
  let check a b =
    QCheck.assume ((not (Dbm.is_empty b)) && Dbm.includes a b);
    prop a b
  in
  [ QCheck.Test.make ~count:1000 ~name:(name ^ " (random pairs)")
      (QCheck.pair arb_ops arb_ops)
      (fun (o1, o2) -> check (build o1) (build o2));
    QCheck.Test.make ~count:1000 ~name:(name ^ " (narrowed pairs)") arb_nested
      (fun (o1, extra) -> check (build o1) (build (o1 @ extra))) ]

let prefilter_props =
  included_pairs "includes implies weight order" (fun a b ->
      weight a >= weight b)
  @ included_pairs "includes implies key dominance" (fun a b ->
        dominates fitting a b && dominates clamping a b)
  @ included_pairs "equal weights and inclusion imply equal" (fun a b ->
        weight a <> weight b || Dbm.equal a b)

(* --- key layout ------------------------------------------------------------ *)

(* The lane map at its edges, in a layout for constants up to 100. *)
let test_key_lane_edges () =
  let fmt = Dbm.Key.make ~dim:9 ~max_const:100 in
  let lane = Dbm.Key.lane fmt in
  let top = (1 lsl (Dbm.Key.width fmt - 1)) - 1 in
  let ordered what bounds =
    let lanes = List.map lane bounds in
    Alcotest.(check bool) what true
      (List.for_all2 ( < ) (List.rev (List.tl (List.rev lanes))) (List.tl lanes))
  in
  ordered "strict below non-strict at one constant"
    Bound.[ lt 5; le 5; lt 6; le 6 ];
  ordered "negative row-0 bounds keep their order"
    Bound.[ lt (-100); le (-100); lt (-3); le (-3); lt 0; zero ];
  Alcotest.(check int) "the lowest constant maps to 0" 0 (lane (Bound.lt (-100)));
  Alcotest.(check int) "infinity is the top lane" top (lane Bound.infinity);
  ordered "the highest constant sits below infinity"
    Bound.[ lt 100; le 100; infinity ];
  Alcotest.(check int) "clamped below" 0 (lane (Bound.lt (-101)));
  Alcotest.(check int) "clamped far below" 0 (lane (Bound.le (-1_000_000)));
  Alcotest.(check int) "clamped above" (top - 1) (lane (Bound.le 1_000_000));
  Alcotest.(check bool) "clamping is monotone" true
    (lane (Bound.le 100) <= lane (Bound.lt 101) && lane (Bound.lt 101) < top)

(* Lane widths and words per key as the constants grow: small constants
   pack more lanes into a word. *)
let test_key_sizes () =
  let shape max_const =
    let fmt = Dbm.Key.make ~dim:9 ~max_const in
    (Dbm.Key.width fmt, Dbm.Key.lanes fmt)
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "six 10-bit lanes" (10, 6) (shape 100);
  Alcotest.check pair "four 15-bit lanes" (15, 4) (shape 4095);
  Alcotest.check pair "three 16-bit lanes" (16, 3) (shape 4096);
  Alcotest.check pair "three lanes at 262143" (21, 3) (shape 262143);
  Alcotest.check pair "two lanes past it" (22, 2) (shape 262144);
  Alcotest.check pair "huge constants clamp at two lanes" (31, 2)
    (shape (1 lsl 40));
  let lens max_const =
    List.map
      (fun dim -> Dbm.Key.len (Dbm.Key.make ~dim ~max_const))
      [ 1; 2; 3; 5; 9 ]
  in
  Alcotest.(check (list int)) "ints per key, 6 lanes" [ 2; 2; 2; 3; 4 ] (lens 100);
  Alcotest.(check (list int)) "ints per key, 4 lanes" [ 2; 2; 2; 3; 5 ]
    (lens 4095);
  Alcotest.(check (list int)) "ints per key, 3 lanes" [ 2; 2; 3; 4; 7 ]
    (lens 9000)

(* The unused lanes of a partial last word are 0, and a hole key
   dominates nothing and is dominated by nothing. *)
let test_key_partial_word_and_hole () =
  let fmt = Dbm.Key.make ~dim:3 ~max_const:9000 in
  let z = Dbm.zero 3 in
  Dbm.up z;
  Dbm.constrain z 1 0 (Bound.le 20);
  let k = key fmt z in
  Alcotest.(check int) "last word holds one lane" 0
    (k.(2) lsr (Dbm.Key.width fmt - 1));
  List.iter
    (fun dim ->
      let fmt = Dbm.Key.make ~dim ~max_const:8 in
      let hole = Array.make (Dbm.Key.len fmt) 0 in
      Dbm.Key.hole fmt hole 0;
      List.iter
        (fun z ->
          let k = key fmt z in
          Alcotest.(check bool) (Printf.sprintf "dim %d: hole covers" dim) false
            (Dbm.Key.ge fmt hole 0 k 0);
          Alcotest.(check bool) (Printf.sprintf "dim %d: hole killed" dim) false
            (Dbm.Key.ge fmt k 0 hole 0))
        (let point = Dbm.zero dim and open_ = Dbm.zero dim in
         Dbm.up open_;
         [ point; open_ ]))
    [ 2; 3; 5; 9 ]

(* At dim 1 a key has one all-zero word, and all keys are equal. *)
let test_key_dim_one () =
  let fmt = Dbm.Key.make ~dim:1 ~max_const:8 in
  let a = Dbm.zero 1 and b = Dbm.zero 1 in
  Dbm.up b;
  Alcotest.(check (array int)) "one empty word" [| weight a; 0 |] (key fmt a);
  Alcotest.(check bool) "equal keys dominate" true
    (dominates fmt a b && dominates fmt b a)

(* [Key.ge] against its definition, lane by lane through [Key.lane],
   at dims whose last word is partial or full, in layouts of every lane
   count, over zones whose constants reach past the layout's (so some
   bounds clamp).  Half the pairs nest, so both outcomes occur. *)
let ref_ge fmt a b =
  let lane = Dbm.Key.lane fmt in
  weight a >= weight b
  && List.for_all
       (fun i ->
         lane (Dbm.get a i 0) >= lane (Dbm.get b i 0)
         && lane (Dbm.get a 0 i) >= lane (Dbm.get b 0 i))
       (List.init (Dbm.dim a - 1) succ)

type key_case = {
  kc_dim : int;
  kc_max_const : int;
  kc_scale : int;
  kc_a : Gen.dbm_op list;
  kc_b : Gen.dbm_op list;
  kc_nested : bool;
  kc_more : Gen.dbm_op list list;  (* further zones, for summaries *)
}

let build_scaled dim scale ops =
  let z = Dbm.zero dim in
  List.iter
    (function
      | Gen.Op_constrain (i, j, strict, n) ->
        Gen.apply_dbm_op z (Gen.Op_constrain (i, j, strict, n * scale))
      | op -> Gen.apply_dbm_op z op)
    ops;
  z

let arb_key_case =
  let open QCheck.Gen in
  let gen =
    let* kc_dim = oneofl [ 2; 3; 5; 9 ]
    and* kc_max_const = oneofl [ 0; 8; 4095; 9000; 70_000; 300_000 ]
    and* kc_scale = oneofl [ 1; 600; 10_000; 50_000 ]
    and* kc_nested = bool in
    let ops = list_size (int_range 0 12) (Gen.gen_dbm_op_at kc_dim) in
    let* kc_a = ops and* more = ops
    and* kc_more = list_size (int_range 0 6) ops in
    let kc_b =
      if kc_nested then
        kc_a @ List.filter (function Gen.Op_constrain _ -> true | _ -> false) more
      else more
    in
    return { kc_dim; kc_max_const; kc_scale; kc_a; kc_b; kc_nested; kc_more }
  in
  QCheck.make gen ~print:(fun c ->
      Fmt.str "dim %d, max_const %d, scale %d, a: %a; b: %a" c.kc_dim
        c.kc_max_const c.kc_scale
        Fmt.(list ~sep:semi Gen.pp_dbm_op) c.kc_a
        Fmt.(list ~sep:semi Gen.pp_dbm_op) c.kc_b)

let prop_key_ge_matches_lanes =
  QCheck.Test.make ~name:"key dominance = lane-wise dominance" ~count:2000
    arb_key_case (fun c ->
      let a = build_scaled c.kc_dim c.kc_scale c.kc_a
      and b = build_scaled c.kc_dim c.kc_scale c.kc_b in
      QCheck.assume (not (Dbm.is_empty a || Dbm.is_empty b));
      let fmt = Dbm.Key.make ~dim:c.kc_dim ~max_const:c.kc_max_const in
      dominates fmt a b = ref_ge fmt a b && dominates fmt b a = ref_ge fmt b a)

(* A block summary dominates every key added to it (max) and is
   dominated by every one (min); over one key, or a chain of two, it is
   exactly the extreme keys. *)
let prop_key_summaries =
  QCheck.Test.make ~name:"block summaries bound their keys" ~count:500
    arb_key_case (fun c ->
      let fmt = Dbm.Key.make ~dim:c.kc_dim ~max_const:c.kc_max_const in
      let zones =
        List.filter
          (fun z -> not (Dbm.is_empty z))
          (List.map (build_scaled c.kc_dim c.kc_scale)
             (c.kc_a :: c.kc_b :: c.kc_more))
      in
      QCheck.assume (zones <> []);
      let len = Dbm.Key.len fmt in
      let summary keys =
        let max = Array.make len 0 and min = Array.make len 0 in
        Dbm.Key.summary_clear fmt ~max ~min 0;
        List.iter (fun k -> Dbm.Key.summary_add fmt ~max ~min 0 k 0) keys;
        (max, min)
      in
      let keys = List.map (key fmt) zones in
      let max, min = summary keys in
      List.for_all
        (fun k -> Dbm.Key.ge fmt max 0 k 0 && Dbm.Key.ge fmt k 0 min 0)
        keys
      && List.for_all (fun k -> summary [ k ] = (k, k)) keys
      &&
      let a = build_scaled c.kc_dim c.kc_scale c.kc_a
      and b = build_scaled c.kc_dim c.kc_scale c.kc_b in
      (not c.kc_nested) || Dbm.is_empty b
      || (let ka = key fmt a and kb = key fmt b in
          summary [ kb; ka ] = (ka, kb) && summary [ ka; kb ] = (ka, kb)))

(* --- reference closure --------------------------------------------------- *)

(* The kernels in [Dbm] read the bound encoding locally and re-close
   extrapolated zones over the loosened entries only.  These properties
   pin them byte for byte to a naive Floyd-Warshall written with
   [Bound.add] alone, at table1's scale as well as the small one. *)

(* Row [i]'s pivot entry is read once per pivot, as [Dbm] does; on a
   negative cycle the relaxation order shows in the bytes. *)
let ref_close dim m =
  let at i j = (i * dim) + j in
  for k = 0 to dim - 1 do
    for i = 0 to dim - 1 do
      let dik = m.(at i k) in
      for j = 0 to dim - 1 do
        let through = Bound.add dik m.(at k j) in
        if through < m.(at i j) then m.(at i j) <- through
      done
    done
  done;
  if List.exists (fun i -> m.(at i i) < Bound.zero) (List.init dim Fun.id)
  then m.(0) <- Bound.lt 0;
  m

let ref_empty m = m.(0) < Bound.zero

(* ExtraM and ExtraLU as entrywise rules on the raw matrix. *)
let widen_m dim m k =
  Array.mapi
    (fun p b ->
      let i = p / dim and j = p mod dim in
      if i = j then b
      else if (not (Bound.is_infinite b)) && b > Bound.le k.(i) then
        Bound.infinity
      else if b < Bound.lt (-k.(j)) then Bound.lt (-k.(j))
      else b)
    m

(* Arbitrary matrices, canonical or not, negative cycles included. *)
let arb_matrix dim =
  let bound =
    QCheck.Gen.(
      frequency
        [ (1, return Bound.infinity);
          (4,
           map2 Gen.dbm_bound bool (int_range (-10) 10)) ])
  in
  let diagonal =
    QCheck.Gen.(
      frequency [ (9, return Bound.zero); (1, map Bound.le (int_range (-2) 2)) ])
  in
  QCheck.make
    ~print:(Fmt.to_to_string Fmt.(Dump.array int))
    QCheck.Gen.(
      map Array.of_list
        (flatten_l
           (List.init (dim * dim) (fun p ->
                if p / dim = p mod dim then diagonal else bound))))

let arb_constraint dim =
  QCheck.(
    quad (int_range 0 (dim - 1)) (int_range 0 (dim - 1)) bool
      (int_range (-8) 8))

let fst3 (a, _, _) = a
let thd3 (_, _, c) = c

(* A zone with dead clocks, as the explorer's activity reduction leaves
   them: a trail, then [free] of every clock marked dead, then a second
   trail that neither reads nor resets a dead clock (a constraint that
   would empty the zone is dropped, as at the wide size).  Each dead row
   is infinite off the diagonal; the row set is row 0 and every clock
   not marked. *)
let arb_dead_zone dim arb_ops =
  QCheck.(
    triple arb_ops (list_of_size (Gen.return (dim - 1)) bool) arb_ops)

let dead_zone dim build (ops, dead, more) =
  let z = build ops in
  let dead = Array.of_list (false :: dead) in
  Array.iteri (fun i d -> if d then Dbm.free z i) dead;
  List.iter
    (fun op ->
      match op with
      | Gen.Op_reset i when dead.(i) -> ()
      | Gen.Op_constrain (i, j, _, _) when dead.(i) || dead.(j) -> ()
      | Gen.Op_constrain (i, j, strict, n)
        when i <> j && not (Dbm.satisfiable z i j (Gen.dbm_bound strict n)) ->
        ()
      | Gen.Op_up | Gen.Op_reset _ | Gen.Op_constrain _ -> Gen.apply_dbm_op z op)
    more;
  let rows =
    Array.of_list (List.filter (fun i -> not dead.(i)) (List.init dim Fun.id))
  in
  (z, rows)

(* Whether every row outside [rows] is infinite off the diagonal. *)
let dead_rows_infinite dim rows z =
  List.for_all
    (fun i ->
      Array.mem i rows
      || List.for_all
           (fun j -> j = i || Bound.is_infinite (Dbm.get z i j))
           (List.init dim Fun.id))
    (List.init dim Fun.id)

let reference_props dim arb_ops build =
  let ceilings = Gen.arb_dbm_ceilings_at dim in
  let name s = Printf.sprintf "%s (dim %d)" s dim in
  [ QCheck.Test.make ~name:(name "canonicalize = reference closure")
      ~count:500 (arb_matrix dim) (fun m ->
        let z = Dbm.of_ints ~dim m in
        Dbm.canonicalize z;
        Dbm.to_ints z = ref_close dim (Array.copy m));
    QCheck.Test.make ~name:(name "constrain = tighten, then reference closure")
      ~count:1000
      (QCheck.pair arb_ops (arb_constraint dim))
      (fun (ops, (i, j, strict, n)) ->
        QCheck.assume (i <> j);
        let z = build ops in
        QCheck.assume (not (Dbm.is_empty z));
        let b = Gen.dbm_bound strict n in
        let expected = Dbm.to_ints z in
        let p = (i * dim) + j in
        if b < expected.(p) then expected.(p) <- b;
        let expected = ref_close dim expected in
        Dbm.constrain z i j b;
        Dbm.is_empty z = ref_empty expected
        && (Dbm.is_empty z || Dbm.to_ints z = expected));
    QCheck.Test.make
      ~name:(name "extrapolate = ExtraM rule, then reference closure")
      ~count:1000 (QCheck.pair arb_ops ceilings) (fun (ops, k) ->
        let z = build ops in
        QCheck.assume (not (Dbm.is_empty z));
        let expected = ref_close dim (widen_m dim (Dbm.to_ints z) k) in
        Dbm.extrapolate z k (Dbm.all_rows dim);
        (not (Dbm.is_empty z)) && Dbm.to_ints z = expected);
    (* the row-0 fallback: a closed matrix whose row 0 may exceed
       [le 0] is scanned row by row in full *)
    QCheck.Test.make
      ~name:(name "extrapolate on closed matrices = ExtraM, then closure")
      ~count:1000 (QCheck.pair (arb_matrix dim) ceilings) (fun (m, k) ->
        let z = Dbm.of_ints ~dim m in
        Dbm.canonicalize z;
        QCheck.assume (not (Dbm.is_empty z));
        let expected = ref_close dim (widen_m dim (Dbm.to_ints z) k) in
        Dbm.extrapolate z k (Dbm.all_rows dim);
        (not (Dbm.is_empty z)) && Dbm.to_ints z = expected);
    QCheck.Test.make
      ~name:(name "live-row extrapolate = ExtraM rule, then closure")
      ~count:1000
      (QCheck.pair (arb_dead_zone dim arb_ops) ceilings)
      (fun (ops, k) ->
        let z, rows = dead_zone dim build ops in
        QCheck.assume (not (Dbm.is_empty z));
        if not (dead_rows_infinite dim rows z) then
          QCheck.Test.fail_report "a freed row is finite before extrapolation";
        let expected = ref_close dim (widen_m dim (Dbm.to_ints z) k) in
        Dbm.extrapolate z k rows;
        (not (Dbm.is_empty z)) && Dbm.to_ints z = expected);
    QCheck.Test.make
      ~name:(name "includes_rows = includes over infinite dead rows")
      ~count:1000
      (QCheck.triple (arb_dead_zone dim arb_ops) arb_ops QCheck.bool)
      (fun (((_, dead, _) as ops), other, narrowed) ->
        (* [b] shares [a]'s dead clocks: [a] narrowed by [other]'s
           constraints, or a zone of its own *)
        let a, rows = dead_zone dim build ops in
        let b, _ =
          if narrowed then
            let constraints =
              List.filter (function Gen.Op_constrain _ -> true | _ -> false)
            in
            dead_zone dim build (fst3 ops, dead, thd3 ops @ constraints other)
          else dead_zone dim build (other, dead, [])
        in
        QCheck.assume (not (Dbm.is_empty a || Dbm.is_empty b));
        let weight z = Dbm.weight z rows in
        Dbm.includes_rows a b rows = Dbm.includes a b
        && Dbm.includes_rows b a rows = Dbm.includes b a
        && ((not (Dbm.includes a b)) || weight a >= weight b)) ]

let reference_closure_props =
  reference_props Gen.dbm_dims Gen.arb_dbm_ops Gen.build_dbm
  @ reference_props Gen.dbm_dims_wide Gen.arb_dbm_ops_wide Gen.build_dbm_wide

(* --- delay step ------------------------------------------------------------

   [up_to] against what the explorer did before it: [up], then each
   invariant atom through [constrain].  An invariant mixes [<], [<=],
   [==], [>=] and [>] on single clocks, compiled to DBM entries as
   [Ta.Compiled] compiles them ([==] is a [<=] and a [>=] entry); the
   explorer applies them all first, then delays under the upper bounds
   alone. *)

type rel = Lt | Le | Eq | Ge | Gt

let pp_rel ppf r =
  Fmt.string ppf
    (match r with Lt -> "<" | Le -> "<=" | Eq -> "==" | Ge -> ">=" | Gt -> ">")

let arb_invariant dim =
  QCheck.make
    ~print:
      (Fmt.to_to_string
         Fmt.(list ~sep:semi (fun ppf (i, r, n) -> pf ppf "x%d %a %d" i pp_rel r n)))
    QCheck.Gen.(
      list_size (int_range 0 4)
        (triple (int_range 1 (dim - 1)) (oneofl [ Lt; Le; Eq; Ge; Gt ])
           (int_range 0 10)))

(* An atom's entries as [(i, j, bound)], bounding [x_i - x_j]. *)
let entries (i, r, n) =
  match r with
  | Lt -> [ (i, 0, Bound.lt n) ]
  | Le -> [ (i, 0, Bound.le n) ]
  | Eq -> [ (i, 0, Bound.le n); (0, i, Bound.le (-n)) ]
  | Ge -> [ (0, i, Bound.le (-n)) ]
  | Gt -> [ (0, i, Bound.lt (-n)) ]

let constrain_all z = List.iter (fun (i, j, b) -> Dbm.constrain z i j b)

let upper_entries = List.filter (fun (_, j, _) -> j = 0)

let upper es =
  let ub = upper_entries es in
  ( Array.of_list (List.map (fun (i, _, _) -> i) ub),
    Array.of_list (List.map (fun (_, _, b) -> b) ub) )

(* [up_to] under [es]'s upper bounds against [up], then [constrain] for
   each of [reference]: the same emptiness, and byte-equal matrices when
   non-empty. *)
let delays_agree z es reference =
  let want = Dbm.copy z and got = Dbm.copy z in
  Dbm.up want;
  constrain_all want reference;
  let clocks, bounds = upper es in
  Dbm.up_to got clocks bounds;
  Dbm.is_empty got = Dbm.is_empty want
  && (Dbm.is_empty got || Dbm.to_ints got = Dbm.to_ints want)

let delay_props dim arb_ops build =
  let name s = Printf.sprintf "%s (dim %d)" s dim in
  [ QCheck.Test.make ~name:(name "up_to = up, then constrain per bound")
      ~count:1000
      (QCheck.pair arb_ops (arb_invariant dim))
      (fun (ops, inv) ->
        let es = List.concat_map entries inv in
        (* on the zone as built, against the upper bounds alone; then as
           the explorer's delay step sees it, with the whole invariant
           applied first, against every entry re-applied after [up] *)
        let z = build ops in
        delays_agree z es (upper_entries es)
        && (constrain_all z es;
            delays_agree z es es)) ]

let delay_step_props =
  delay_props Gen.dbm_dims Gen.arb_dbm_ops Gen.build_dbm
  @ delay_props Gen.dbm_dims_wide Gen.arb_dbm_ops_wide Gen.build_dbm_wide

let test_up_to_rejects () =
  let z = Dbm.zero 3 in
  let rejects what clocks bounds =
    match Dbm.up_to z clocks bounds with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "reference clock" [| 0 |] [| Bound.le 1 |];
  rejects "clock past the dimension" [| 3 |] [| Bound.le 1 |];
  rejects "infinite bound" [| 1 |] [| Bound.infinity |];
  rejects "lengths differ" [| 1; 2 |] [| Bound.le 1 |]

(* --- subsumption scan ---------------------------------------------------- *)

(* [Key.scan] against a slot-by-slot pass with [Key.ge] and [includes],
   newest first, on random nodes.  Some slots are holes, punched before
   their block was summarised or after (its summaries then still count
   the dead key), and the last block may be partial.  Stored zones are
   random, or the newcomer's trail with more constraints (a victim) or
   without its last ones (a cover); in half the nodes no stored zone
   covers the newcomer, so the scan runs to the end.  Both passes must
   agree on whether the newcomer is covered and on the victims, in
   order; a hole never reaches a callback. *)
type scan_case = {
  sc_block : int;
  sc_base : Gen.dbm_op list;
  sc_extra : Gen.dbm_op list;  (* constraints: the newcomer is base @ extra *)
  sc_cover : bool;  (* whether covering zones are kept *)
  sc_slots : (int * Gen.dbm_op list * int) list;
      (* (random / looser / tighter, trail, live / hole before / after) *)
}

let arb_scan_case =
  let open QCheck.Gen in
  let constraints =
    map
      (List.filter (function Gen.Op_constrain _ -> true | _ -> false))
      (list_size (int_range 0 4) Gen.gen_dbm_op)
  in
  let slot =
    triple (int_range 0 2) (QCheck.gen Gen.arb_dbm_ops)
      (frequency [ (6, return 0); (1, return 1); (1, return 2) ])
  in
  let gen =
    let* sc_block = oneofl [ 1; 3; 8 ] and* sc_base = QCheck.gen Gen.arb_dbm_ops
    and* sc_extra = constraints and* sc_cover = bool
    and* sc_slots = list_size (int_range 0 40) slot in
    return { sc_block; sc_base; sc_extra; sc_cover; sc_slots }
  in
  QCheck.make gen ~print:(fun c ->
      Fmt.str "block %d, %d slots, offer: %a" c.sc_block
        (List.length c.sc_slots)
        Fmt.(list ~sep:semi Gen.pp_dbm_op)
        (c.sc_base @ c.sc_extra))

let scan_matches fmt c =
  let block = c.sc_block and klen = Dbm.Key.len fmt in
  let offer = build (c.sc_base @ c.sc_extra) in
  let slots =
    Array.of_list
      (List.filter_map
         (fun (kind, ops, hole) ->
           let z =
             match kind with
             | 0 -> build ops
             | 1 -> build c.sc_base
             | _ ->
               build
                 (c.sc_base @ c.sc_extra
                  @ List.filter
                      (function Gen.Op_constrain _ -> true | _ -> false)
                      ops)
           in
           if Dbm.is_empty z || ((not c.sc_cover) && Dbm.includes z offer)
           then None
           else Some (z, hole))
         c.sc_slots)
  in
  let len = Array.length slots in
  let keys = Array.make ((len + 1) * klen) 0 in
  Array.iteri
    (fun s (z, hole) ->
      Dbm.Key.write fmt z (Dbm.all_rows (Dbm.dim z)) keys (s * klen);
      if hole = 1 then Dbm.Key.hole fmt keys (s * klen))
    slots;
  let nblocks = len / block in
  let bmax = Array.make ((nblocks + 1) * klen) 0 in
  let bmin = Array.make ((nblocks + 1) * klen) 0 in
  for b = 0 to nblocks - 1 do
    Dbm.Key.summary_clear fmt ~max:bmax ~min:bmin (b * klen);
    for s = b * block to ((b + 1) * block) - 1 do
      if snd slots.(s) <> 1 then
        Dbm.Key.summary_add fmt ~max:bmax ~min:bmin (b * klen) keys (s * klen)
    done
  done;
  Array.iteri
    (fun s (_, hole) -> if hole = 2 then Dbm.Key.hole fmt keys (s * klen))
    slots;
  let nk = key fmt offer in
  let zone s =
    if snd slots.(s) <> 0 then Alcotest.failf "hole %d reached a callback" s;
    fst slots.(s)
  in
  let victims = ref [] in
  let covered =
    Dbm.Key.scan fmt ~block ~keys ~bmax ~bmin ~len nk
      ~cover:(fun s -> Dbm.includes (zone s) offer)
      ~victim:(fun s ->
        if Dbm.includes offer (zone s) then victims := s :: !victims)
  in
  let rec reference s found =
    if s < 0 then (false, found)
    else
      let z = fst slots.(s) and off = s * klen in
      if Dbm.Key.ge fmt keys off nk 0 && Dbm.includes z offer then (true, found)
      else if Dbm.Key.ge fmt nk 0 keys off && Dbm.includes offer z then
        reference (s - 1) (s :: found)
      else reference (s - 1) found
  in
  (not (Dbm.is_empty offer)) && (covered, !victims) = reference (len - 1) []

let prop_key_scan =
  QCheck.Test.make ~name:"key scan = slot-by-slot ge + includes" ~count:1000
    arb_scan_case (fun c ->
      QCheck.assume (not (Dbm.is_empty (build (c.sc_base @ c.sc_extra))));
      scan_matches fitting c && scan_matches clamping c)

(* --- kernels on two domains at once ----------------------------------------

   Extrapolation's touched-entry list is per domain, and [up_to] keeps
   no scratch at all.  Two domains run a kernel at once, one over the
   dim-4 zones then the dim-9 ones, the other the reverse (so each
   grows its extrapolation scratch while the other uses its own), and
   must reproduce a sequential run's bytes. *)
let in_two_domains ~seed job kernel =
  let rand = Random.State.make [| seed |] in
  let jobs dim arb_ops build =
    List.filter_map
      (fun _ ->
        let z = build (QCheck.Gen.generate1 ~rand (QCheck.gen arb_ops)) in
        let arg = job ~rand dim in
        if Dbm.is_empty z then None else Some (z, arg))
      (List.init 300 Fun.id)
  in
  let small = jobs Gen.dbm_dims Gen.arb_dbm_ops Gen.build_dbm in
  let wide = jobs Gen.dbm_dims_wide Gen.arb_dbm_ops_wide Gen.build_dbm_wide in
  let run (z, arg) =
    let z = Dbm.copy z in
    kernel z arg;
    Dbm.to_ints z
  in
  let expect jobs = List.map (fun j -> (j, run j)) jobs in
  let a = expect (small @ wide) and b = expect (wide @ small) in
  let mismatches cases () =
    let bad = ref 0 in
    for _ = 1 to 20 do
      List.iter (fun (j, want) -> if run j <> want then incr bad) cases
    done;
    !bad
  in
  let other = Domain.spawn (mismatches b) in
  let here = mismatches a () in
  let there = Domain.join other in
  Alcotest.(check (pair int int)) "no mismatch in either domain" (0, 0)
    (here, there)

let test_widen_domains () =
  in_two_domains ~seed:22
    (fun ~rand dim ->
      QCheck.Gen.generate1 ~rand (QCheck.gen (Gen.arb_dbm_ceilings_at dim)))
    (fun z k -> Dbm.extrapolate z k (Dbm.all_rows (Dbm.dim z)))

let test_delay_domains () =
  in_two_domains ~seed:43
    (fun ~rand dim ->
      upper
        (List.concat_map entries
           (QCheck.Gen.generate1 ~rand (QCheck.gen (arb_invariant dim)))))
    (fun z (clocks, bounds) -> Dbm.up_to z clocks bounds)

let suite =
  [ Alcotest.test_case "bound encoding order" `Quick test_bound_encoding;
    Alcotest.test_case "bound addition" `Quick test_bound_add;
    Alcotest.test_case "bound negation" `Quick test_bound_negate;
    Alcotest.test_case "zero zone" `Quick test_zero_zone;
    Alcotest.test_case "up then constrain" `Quick test_up_then_constrain;
    Alcotest.test_case "contradiction empties" `Quick test_constrain_empties;
    Alcotest.test_case "satisfiable does not mutate" `Quick
      test_satisfiable_no_mutation;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "free" `Quick test_free;
    Alcotest.test_case "inclusion" `Quick test_inclusion;
    Alcotest.test_case "empty-zone inclusion" `Quick test_empty_inclusion;
    Alcotest.test_case "sup and inf" `Quick test_sup_inf;
    Alcotest.test_case "extrapolation drops big bounds" `Quick
      test_extrapolate_drops_big_bounds;
    Alcotest.test_case "extrapolation keeps small bounds" `Quick
      test_extrapolate_keeps_small_bounds;
    Alcotest.test_case "equal requires same dimension" `Quick
      test_equal_requires_dimension;
    QCheck_alcotest.to_alcotest prop_constrain_is_intersection;
    QCheck_alcotest.to_alcotest prop_up_closure;
    QCheck_alcotest.to_alcotest prop_reset_membership;
    QCheck_alcotest.to_alcotest prop_inclusion_sound;
    QCheck_alcotest.to_alcotest prop_canonical_stable;
    QCheck_alcotest.to_alcotest prop_mutual_inclusion_is_equal;
    QCheck_alcotest.to_alcotest prop_extrapolate_preserves_inclusion ]
  @ List.map QCheck_alcotest.to_alcotest prefilter_props
  @ [ Alcotest.test_case "key lane edges" `Quick test_key_lane_edges;
      Alcotest.test_case "key sizes" `Quick test_key_sizes;
      Alcotest.test_case "key partial word and hole" `Quick
        test_key_partial_word_and_hole;
      Alcotest.test_case "key at dim 1" `Quick test_key_dim_one;
      QCheck_alcotest.to_alcotest prop_key_ge_matches_lanes;
      QCheck_alcotest.to_alcotest prop_key_summaries;
      QCheck_alcotest.to_alcotest prop_key_scan;
      Alcotest.test_case "extrapolation scratch per domain" `Quick
        test_widen_domains;
      Alcotest.test_case "up_to rejects bad bounds" `Quick test_up_to_rejects;
      Alcotest.test_case "up_to on two domains" `Quick test_delay_domains ]
  @ List.map QCheck_alcotest.to_alcotest reference_closure_props
  @ List.map QCheck_alcotest.to_alcotest delay_step_props
