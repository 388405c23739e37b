(* Reference model of Store.D128: the per-byte fold the digest was
   defined by, kept verbatim (two mutable [int64] lanes, one [add_byte]
   per input byte).  Store.D128 must reproduce it bit for bit: its
   digests key every persisted store entry, session and snapshot, so a
   drifting digest would silently orphan all of them.  Also writes the
   store's frames by hand, for compatibility tests that need bytes the
   library did not produce. *)

type builder = { mutable a : int64; mutable b : int64 }

let fnv_prime = 0x100000001b3L

let builder () = { a = 0xcbf29ce484222325L; b = 0x6c62272e07bb0142L }

let add_byte st c =
  st.a <- Int64.mul (Int64.logxor st.a (Int64.of_int c)) fnv_prime;
  st.b <- Int64.mul (Int64.logxor st.b (Int64.of_int (c lxor 0xa5))) fnv_prime

let add_char st c = add_byte st (Char.code c)

let add_int64 st v =
  for shift = 0 to 7 do
    add_byte st (Int64.to_int (Int64.shift_right_logical v (8 * shift)) land 0xff)
  done

let add_int st v = add_int64 st (Int64.of_int v)

let add_bool st b = add_byte st (if b then 1 else 0)

let add_string st s =
  add_int st (String.length s);
  String.iter (fun c -> add_byte st (Char.code c)) s

let add_int_array st a =
  add_int st (Array.length a);
  Array.iter (fun v -> add_int st v) a

let fmix64 k =
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xff51afd7ed558ccdL in
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xc4ceb9fe1a85ec53L in
  Int64.logxor k (Int64.shift_right_logical k 33)

(* The digest as {!Store.D128.to_hex} prints it. *)
let hex st =
  Printf.sprintf "%016Lx%016Lx"
    (fmix64 (Int64.add st.a (Int64.mul 0x9e3779b97f4a7c15L st.b)))
    (fmix64 (Int64.add st.b (Int64.mul 0xc2b2ae3d27d4eb4fL st.a)))

let of_string s =
  let st = builder () in
  add_string st s;
  hex st

(* The PSVSTORE1 / PSVSESS1 / PSVGRAPH1 framing: magic, payload digest,
   payload length, payload. *)
let frame magic payload =
  Printf.sprintf "%s\n%s\n%d\n%s" magic (of_string payload)
    (String.length payload) payload

(* The payload of a framed file, unchecked: everything after the third
   newline. *)
let payload raw =
  let after i = String.index_from raw i '\n' + 1 in
  let start = after (after (after 0)) in
  String.sub raw start (String.length raw - start)
