(* Zigzag maps 0, -1, 1, -2, ... to 0, 1, 2, 3, ...; that goes out seven
   bits a byte, low bits first, the high bit set on all but the last, so
   nine bytes carry all 63 bits.  The loops are top-level recursions: a
   local closure would be allocated per integer. *)
let rec add_zigzag b z =
  if z lsr 7 = 0 then Buffer.add_char b (Char.unsafe_chr z)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (z land 0x7f)));
    add_zigzag b (z lsr 7)
  end

let add_int b n = add_zigzag b ((n lsl 1) lxor (n asr 62))

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_ints b a =
  add_int b (Array.length a);
  Array.iter (add_int b) a

type reader = { src : string; mutable pos : int }

exception Malformed of string

let reader src = { src; pos = 0 }
let at_end r = r.pos = String.length r.src

let rec zigzag r acc shift =
  if at_end r then raise (Malformed "truncated");
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c < 0x80 then acc
  else if shift = 56 then raise (Malformed "over-long integer")
  else zigzag r acc (shift + 7)

let int r =
  let z = zigzag r 0 0 in
  (z lsr 1) lxor -(z land 1)

let length r =
  let n = int r in
  if n < 0 || n > String.length r.src - r.pos then
    raise (Malformed "length past the end");
  n

let string r =
  let n = length r in
  r.pos <- r.pos + n;
  String.sub r.src (r.pos - n) n

let ints r = Array.init (length r) (fun _ -> int r)
