type t = { hi : int64; lo : int64 }

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let compare a b =
  match Int64.unsigned_compare a.hi b.hi with
  | 0 -> Int64.unsigned_compare a.lo b.lo
  | c -> c

let to_hex t = Printf.sprintf "%016Lx%016Lx" t.hi t.lo

let is_hex c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let of_hex s =
  if String.length s <> 32 || not (String.for_all is_hex s) then None
  else
    (* unsigned parse: Int64.of_string "0xffff..." wraps to the negative
       representation, which is exactly the bit pattern we want *)
    let part off = Int64.of_string ("0x" ^ String.sub s off 16) in
    Some { hi = part 0; lo = part 16 }

let pp ppf t = Format.pp_print_string ppf (to_hex t)

(* Two 64-bit FNV-1a lanes over the same byte stream, with distinct
   offset bases and the second lane's input bytes perturbed, so the
   lanes never collapse onto each other; a murmur3-style finalizer mixes
   the lanes into the published halves.

   The module digests multi-megabyte payloads (framed checkpoints), so
   the per-byte cost matters.  A write to a mutable [int64] field boxes,
   so each multi-byte atom runs its loop over two local [int64] refs
   instead — ocamlopt keeps those unboxed in registers, flambda or not —
   and writes the lanes back to the builder once per call.  The byte
   stream, and so every digest, is fixed: test_store pins golden
   vectors. *)

type builder = { mutable a : int64; mutable b : int64 }

let fnv_prime = 0x100000001b3L

let builder () = { a = 0xcbf29ce484222325L; b = 0x6c62272e07bb0142L }

let copy st = { a = st.a; b = st.b }

let[@inline] lane h c = Int64.mul (Int64.logxor h (Int64.of_int c)) fnv_prime

let add_byte st c =
  st.a <- lane st.a c;
  st.b <- lane st.b (c lxor 0xa5)

let add_char st c = add_byte st (Char.code c)

(* Little-endian bytes of [v]; inlined so [add_int]'s conversion never
   boxes. *)
let[@inline] add_int64 st v =
  let a = ref st.a and b = ref st.b in
  for shift = 0 to 7 do
    let c = Int64.to_int (Int64.shift_right_logical v (8 * shift)) land 0xff in
    a := lane !a c;
    b := lane !b (c lxor 0xa5)
  done;
  st.a <- !a;
  st.b <- !b

let add_int st v = add_int64 st (Int64.of_int v)

let add_bool st b = add_byte st (if b then 1 else 0)

let add_string st s =
  add_int st (String.length s);
  let a = ref st.a and b = ref st.b in
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    a := lane !a c;
    b := lane !b (c lxor 0xa5)
  done;
  st.a <- !a;
  st.b <- !b

let add_int_array st a =
  add_int st (Array.length a);
  Array.iter (fun v -> add_int st v) a

let fmix64 k =
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xff51afd7ed558ccdL in
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xc4ceb9fe1a85ec53L in
  Int64.logxor k (Int64.shift_right_logical k 33)

let value st =
  { hi = fmix64 (Int64.add st.a (Int64.mul 0x9e3779b97f4a7c15L st.b));
    lo = fmix64 (Int64.add st.b (Int64.mul 0xc2b2ae3d27d4eb4fL st.a)) }

let of_string s =
  let st = builder () in
  add_string st s;
  value st
