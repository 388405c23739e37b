type config = {
  sv_jobs : int;
  sv_budget : Mc.Runctl.budget;
  sv_request_timeout : float option;
  sv_max_errors : int option;
  sv_max_request_bytes : int;
}

let default_config =
  { sv_jobs = 1;
    sv_budget = Mc.Runctl.no_budget;
    sv_request_timeout = None;
    sv_max_errors = None;
    sv_max_request_bytes = 1 lsl 20 }

type stop = Eof | Drained | Error_limit

type outcome = { sv_served : int; sv_errors : int; sv_stop : stop }

(* --- graceful drain ------------------------------------------------------ *)

(* The flag and the in-flight ctl list are atomic so [request_drain]
   may run inside a signal handler while worker domains evaluate: it
   sets the flag (stops further reads) and cancels every registered
   governance token (stops in-flight searches at their next poll). *)
type drain = {
  dr_flag : bool Atomic.t;
  dr_ctls : Mc.Runctl.t list Atomic.t;
}

let drain () = { dr_flag = Atomic.make false; dr_ctls = Atomic.make [] }
let draining d = Atomic.get d.dr_flag

let request_drain d =
  Atomic.set d.dr_flag true;
  List.iter Mc.Runctl.cancel (Atomic.get d.dr_ctls)

(* Attach an in-flight evaluation's token: a drain request cancels it. *)
let register_ctl d ctl =
  let rec add () =
    let cur = Atomic.get d.dr_ctls in
    if not (Atomic.compare_and_set d.dr_ctls cur (ctl :: cur)) then add ()
  in
  add ();
  (* drain may have fired between the flag check and registration;
     cancelling here closes that race *)
  if Atomic.get d.dr_flag then Mc.Runctl.cancel ctl

(* Removal by physical equality: a long-lived listener evaluates an
   unbounded stream of requests against one drain token, so finished
   tokens must leave the list or it leaks. *)
let unregister_ctl d ctl =
  let rec remove () =
    let cur = Atomic.get d.dr_ctls in
    let next = List.filter (fun c -> c != ctl) cur in
    if not (Atomic.compare_and_set d.dr_ctls cur next) then remove ()
  in
  remove ()

(* --- input hygiene ------------------------------------------------------- *)

let utf8_seq_len c =
  if c < 0x80 then 1
  else if c land 0xE0 = 0xC0 && c >= 0xC2 then 2
  else if c land 0xF0 = 0xE0 then 3
  else if c land 0xF8 = 0xF0 && c <= 0xF4 then 4
  else 0

(* [Some (i + len)] when a valid sequence starts at [i], rejecting
   overlong encodings, surrogates and values above U+10FFFF. *)
let utf8_step s i =
  let n = String.length s in
  let c = Char.code s.[i] in
  let len = utf8_seq_len c in
  if len = 0 || i + len > n then None
  else begin
    let cont k = Char.code s.[i + k] land 0xC0 = 0x80 in
    let conts_ok =
      (len < 2 || cont 1) && (len < 3 || cont 2) && (len < 4 || cont 3)
    in
    if not conts_ok then None
    else
      let range_ok =
        match len with
        | 1 | 2 -> true
        | 3 ->
          let c1 = Char.code s.[i + 1] in
          not (c = 0xE0 && c1 < 0xA0) && not (c = 0xED && c1 >= 0xA0)
        | _ ->
          let c1 = Char.code s.[i + 1] in
          not (c = 0xF0 && c1 < 0x90) && not (c = 0xF4 && c1 >= 0x90)
      in
      if range_ok then Some (i + len) else None
  end

let utf8_valid s =
  let n = String.length s in
  let rec go i =
    if i >= n then true
    else match utf8_step s i with Some j -> go j | None -> false
  in
  go 0

let replacement = "\xEF\xBF\xBD" (* U+FFFD *)

(* Every byte outside a valid UTF-8 sequence becomes U+FFFD, so an error
   message echoing a request fragment cannot poison the LDJSON output. *)
let sanitize_utf8 s =
  if utf8_valid s then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i < n then
        match utf8_step s i with
        | Some j ->
          Buffer.add_substring b s i (j - i);
          go j
        | None ->
          Buffer.add_string b replacement;
          go (i + 1)
    in
    go 0;
    Buffer.contents b
  end

(* --- fd line reader ------------------------------------------------------ *)

let fd_line_reader ?(poll_s = 0.1) ?(cap_bytes = 8 lsl 20) ~draining fd =
  let acc = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let pending : string Queue.t = Queue.create () in
  let eof = ref false in
  let push_acc () =
    Queue.push (Buffer.contents acc) pending;
    Buffer.clear acc
  in
  let consume n =
    for i = 0 to n - 1 do
      let c = Bytes.get chunk i in
      if c = '\n' then push_acc ()
      else if Buffer.length acc < cap_bytes then Buffer.add_char acc c
      (* beyond the cap: swallow bytes until the newline; the truncated
         line is over [sv_max_request_bytes] and will be rejected *)
    done
  in
  fun () ->
    let rec next () =
      if not (Queue.is_empty pending) then Some (Queue.pop pending)
      else if !eof then
        if Buffer.length acc > 0 then begin
          push_acc ();
          next ()
        end
        else None
      else if draining () then None
      else begin
        match Unix.select [ fd ] [] [] poll_s with
        | [], _, _ -> next ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 ->
            eof := true;
            next ()
          | n ->
            consume n;
            next ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
      end
    in
    next ()

(* --- the wire protocol --------------------------------------------------- *)

(* The request/evaluate/render pipeline is shared verbatim between the
   stdin/stdout batch loop below and the socket listener
   ({!Netserve}): a request that completes must render the same
   response document no matter which front end carried it. *)

type run_item = {
  ri_id : Store.Json.t;
  ri_net : Ta.Model.network;
  ri_query : Mc.Query.t;
  ri_limit : int option;
  ri_key : Store.D128.t;
  ri_budget : Store.Entry.budget;
}

type prepared =
  [ `Err of Store.Json.t * string * string option
  | `Hit of Store.Json.t * Store.Entry.t
  | `Run of run_item
  | `Stats of Store.Json.t ]

type reply =
  [ `Err of Store.Json.t * string * string option
  | `Hit of Store.Json.t * Store.Entry.t
  | `Ok of Store.Json.t * Mc.Query.result
  | `Stats of Store.Json.t ]

(* [sv_budget] with [b_time_s] tightened to [sv_request_timeout]. *)
let effective_budget cfg =
  match cfg.sv_request_timeout with
  | None -> cfg.sv_budget
  | Some tmo ->
    let t =
      match cfg.sv_budget.Mc.Runctl.b_time_s with
      | None -> tmo
      | Some b -> Float.min b tmo
    in
    { cfg.sv_budget with Mc.Runctl.b_time_s = Some t }

let str_field name j =
  match Option.bind (Store.Json.member name j) Store.Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "request needs a %S string field" name)

(* Validation before parsing: an over-long or non-UTF-8 line gets a
   JSON error response (id unknowable), and whatever fragment of it an
   error message echoes is sanitized so the output stream stays valid
   UTF-8 LDJSON. *)
let validate cfg line =
  let n = String.length line in
  if n > cfg.sv_max_request_bytes then
    Error
      (Printf.sprintf "request line too long (%d bytes; limit %d)" n
         cfg.sv_max_request_bytes)
  else if not (utf8_valid line) then Error "request line is not valid UTF-8"
  else Ok ()

let prepare cfg ?cache ~load_model line : prepared =
  match validate cfg line with
  | Error msg -> `Err (Store.Json.Null, msg, None)
  | Ok () -> (
    match Store.Json.parse line with
    | Error msg -> `Err (Store.Json.Null, "bad request: " ^ msg, None)
    | Ok j ->
      let id =
        Option.value (Store.Json.member "id" j) ~default:Store.Json.Null
      in
      if Store.Json.member "stats" j = Some (Store.Json.Bool true) then
        `Stats id
      else (
        match
          Result.bind (str_field "model" j) (fun model ->
              Result.map (fun query -> (model, query)) (str_field "query" j))
        with
        | Error msg -> `Err (id, msg, None)
        | Ok (model, query) -> (
          let limit =
            Option.bind (Store.Json.member "limit" j) Store.Json.to_int
          in
          match load_model model with
          | Error msg -> `Err (id, msg, None)
          | exception exn ->
            `Err (id, Printexc.to_string exn, Some (Printexc.get_backtrace ()))
          | Ok net -> (
            match Mc.Query.parse query with
            | Error msg -> `Err (id, "query: " ^ msg, None)
            | Ok q -> (
              let requested =
                Store.Entry.budget_of ?limit (effective_budget cfg)
              in
              let item =
                { ri_id = id;
                  ri_net = net;
                  ri_query = q;
                  ri_limit = limit;
                  ri_key = Qcache.key net q;
                  ri_budget = requested }
              in
              match cache with
              | Some c -> (
                match Qcache.find c ~requested item.ri_key with
                | Some e -> `Hit (id, e)
                | None -> `Run item)
              | None -> `Run item)))))

(* Worker-side evaluation.  Any exception — a crashing predicate, a
   model inconsistency, anything — is confined to this request; the
   diagnosis (with backtrace when recorded) rides in the response's
   error object. *)
let evaluate cfg ?cache ?drain:dtoken (item : prepared) : reply =
  match item with
  | `Err _ | `Hit _ | `Stats _ as r -> (r :> reply)
  | `Run ri -> (
    let ctl = Mc.Runctl.create ~budget:(effective_budget cfg) () in
    (match dtoken with None -> () | Some d -> register_ctl d ctl);
    let finish (r : reply) =
      (match dtoken with None -> () | Some d -> unregister_ctl d ctl);
      r
    in
    match
      Qcache.miss ?cache ~key:ri.ri_key
        ~query:(Mc.Query.to_string ri.ri_query) ~budget:ri.ri_budget
        (fun () -> Mc.Query.eval ~ctl ?limit:ri.ri_limit ri.ri_net ri.ri_query)
    with
    | r, _ -> finish (`Ok (ri.ri_id, r))
    | exception Not_found ->
      finish (`Err (ri.ri_id, "unknown process, location or variable", None))
    | exception exn ->
      finish
        (`Err
          (ri.ri_id, Printexc.to_string exn, Some (Printexc.get_backtrace ()))))

let with_degraded ?cache fields =
  let degraded =
    match cache with Some c -> Qcache.degraded c | None -> false
  in
  if degraded then fields @ [ ("degraded", Store.Json.Bool true) ] else fields

let answer ?cache id ~cached outcome stats =
  Store.Json.Obj
    (with_degraded ?cache
       [ ("id", id);
         ("status", Store.Json.String "ok");
         ("cached", Store.Json.Bool cached);
         ("outcome", Store.Entry.outcome_to_json outcome);
         ("stats", Store.Entry.stats_to_json stats) ])

let reply_json ?cache ?stats_json (reply : reply) =
  let open Store.Json in
  match reply with
  | `Err (id, msg, bt) ->
    let base =
      [ ("id", id);
        ("status", String "error");
        ("error", String (sanitize_utf8 msg)) ]
    in
    let base =
      match bt with
      | Some b when String.trim b <> "" ->
        base @ [ ("backtrace", String (sanitize_utf8 b)) ]
      | _ -> base
    in
    (Obj (with_degraded ?cache base), true)
  | `Hit (id, (e : Store.Entry.t)) ->
    (answer ?cache id ~cached:true e.en_outcome e.en_stats, false)
  | `Ok (id, (r : Mc.Query.result)) ->
    (answer ?cache id ~cached:false r.res_outcome r.res_stats, false)
  | `Stats id ->
    let body =
      match stats_json with
      | Some f -> f ()
      | None -> (
        match cache with
        | Some c -> Obj [ ("cache", Qcache.stats_json c) ]
        | None -> Obj [])
    in
    ( Obj
        (with_degraded ?cache
           [ ("id", id); ("status", String "stats"); ("stats", body) ]),
      false )

(* The shed response of the admission plane: the queue was full, the
   request was never admitted, and the client learns so immediately —
   a 429, not a hang. *)
let busy_json ?cache ?(reason = "server busy: request queue full") id =
  let open Store.Json in
  Obj
    (with_degraded ?cache
       [ ("id", id); ("status", String "busy"); ("error", String reason) ])

(* --- the batch loop ------------------------------------------------------ *)

let run cfg ?cache ?drain:dtoken ~load_model ~read_line ~write_line () =
  let metrics = Metrics.create () in
  let stats_json () =
    Metrics.to_json metrics ?cache ()
  in
  let respond reply =
    let doc, is_error = reply_json ?cache ~stats_json reply in
    if is_error then Metrics.incr_errors metrics;
    Metrics.incr_answered metrics;
    write_line (Store.Json.to_string doc)
  in
  let flush_batch lines =
    match lines with
    | [] -> ()
    | lines ->
      let prepared =
        List.map
          (fun line ->
            Metrics.incr_received metrics;
            prepare cfg ?cache ~load_model line)
          lines
      in
      (* hits and errors pass through; only `Run items cost anything,
         and the pool spreads them over [sv_jobs] domains *)
      List.iter respond
        (Pool.map ~jobs:cfg.sv_jobs
           (fun item ->
             let t0 = Unix.gettimeofday () in
             let r = evaluate cfg ?cache ?drain:dtoken item in
             Metrics.record metrics (1000. *. (Unix.gettimeofday () -. t0));
             r)
           prepared)
  in
  let over_error_limit () =
    match cfg.sv_max_errors with
    | None -> false
    | Some m -> Metrics.errors metrics > m
  in
  let rec loop batch =
    match read_line () with
    | Some line ->
      let line = String.trim line in
      if line = "" then begin
        flush_batch (List.rev batch);
        if over_error_limit () then Error_limit else loop []
      end
      else loop (line :: batch)
    | None ->
      flush_batch (List.rev batch);
      if over_error_limit () then Error_limit
      else (
        match dtoken with
        | Some d when draining d -> Drained
        | _ -> Eof)
  in
  let stop = loop [] in
  { sv_served = Metrics.answered metrics;
    sv_errors = Metrics.errors metrics;
    sv_stop = stop }
