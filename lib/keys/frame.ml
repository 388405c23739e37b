let frame ~magic payload =
  Printf.sprintf "%s\n%s\n%d\n%s" magic
    (D128.to_hex (D128.of_string payload))
    (String.length payload) payload

type error = Foreign | Version of string | Corrupt of string

let is_digit c = c >= '0' && c <= '9'
let is_alnum c = is_digit c || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')

(* The leading alphanumeric run of [raw]: the magic of whatever wrote
   it, capped so a foreign file never floods a diagnostic. *)
let tag raw =
  let n = min 16 (String.length raw) in
  let rec stop i = if i < n && is_alnum raw.[i] then stop (i + 1) else i in
  String.sub raw 0 (stop 0)

let family magic =
  let rec stop i = if i > 0 && is_digit magic.[i - 1] then stop (i - 1) else i in
  String.sub magic 0 (stop (String.length magic))

let unframe ~magic raw =
  let ( let* ) = Result.bind in
  let corrupt msg = Error (Corrupt msg) in
  let m = String.length magic in
  if not (String.length raw > m && String.starts_with ~prefix:magic raw
          && raw.[m] = '\n')
  then
    let t = tag raw in
    if t = magic then corrupt "truncated header"
    else if String.starts_with ~prefix:(family magic) t then Error (Version t)
    else Error Foreign
  else
    let line from =
      match String.index_from_opt raw from '\n' with
      | Some e -> Ok (String.sub raw from (e - from), e + 1)
      | None -> corrupt "truncated header"
    in
    let* hex, next = line (m + 1) in
    let* digest =
      match D128.of_hex hex with
      | Some d -> Ok d
      | None -> corrupt "bad payload digest line"
    in
    let* len, start = line next in
    let* len =
      if len <> "" && String.length len <= 18 && String.for_all is_digit len
      then Ok (int_of_string len)
      else corrupt "bad payload length line"
    in
    if String.length raw - start <> len then
      corrupt "payload length mismatch (truncated?)"
    else
      let payload = String.sub raw start len in
      if D128.equal (D128.of_string payload) digest then Ok payload
      else corrupt "payload digest mismatch"
