module Explorer = Mc.Explorer
module Query = Mc.Query
module Runctl = Mc.Runctl

type budget = {
  bg_limit : int;
  bg_states : int option;
  bg_time_s : float option;
  bg_mem_bytes : int option;
}

type provenance = {
  pv_tool : string;
  pv_jobs : int;
  pv_wall_ms : float;
  pv_created : float;
}

type t = {
  en_key : Keys.D128.t;
  en_query : string;
  en_outcome : Mc.Query.outcome;
  en_stats : Mc.Explorer.stats;
  en_budget : budget;
  en_prov : provenance;
}

let unlimited =
  { bg_limit = max_int; bg_states = None; bg_time_s = None; bg_mem_bytes = None }

let budget_of ?(limit = Explorer.default_limit) (b : Runctl.budget) =
  { bg_limit = limit;
    bg_states = b.b_states;
    bg_time_s = b.b_time_s;
    bg_mem_bytes = b.b_mem_bytes }

(* [None] is "unlimited": it dominates everything and is dominated only
   by another [None]. *)
let ge_opt cached requested =
  match cached, requested with
  | None, _ -> true
  | Some _, None -> false
  | Some c, Some r -> c >= r

let budget_dominates ~cached ~requested =
  cached.bg_limit >= requested.bg_limit
  && ge_opt cached.bg_states requested.bg_states
  && ge_opt cached.bg_time_s requested.bg_time_s
  && ge_opt cached.bg_mem_bytes requested.bg_mem_bytes

let reusable e ~requested =
  match e.en_outcome with
  | Query.Holds | Query.Fails _ | Query.Sup _ -> true
  | Query.Unknown (Runctl.Cancelled, _) -> false
  | Query.Unknown _ -> budget_dominates ~cached:e.en_budget ~requested

(* --- json --------------------------------------------------------------- *)

let sup_to_json = function
  | Explorer.Sup_unreached -> Json.Obj [ ("kind", Json.String "unreached") ]
  | Explorer.Sup (v, strict) ->
    Json.Obj
      [ ("kind", Json.String "value");
        ("value", Json.Int v);
        ("strict", Json.Bool strict) ]
  | Explorer.Sup_exceeds c ->
    Json.Obj [ ("kind", Json.String "exceeds"); ("ceiling", Json.Int c) ]

let reason_to_json = function
  | Runctl.Time_budget s ->
    Json.Obj [ ("tag", Json.String "time-budget"); ("value", Json.Float s) ]
  | Runctl.State_budget n ->
    Json.Obj [ ("tag", Json.String "state-budget"); ("value", Json.Int n) ]
  | Runctl.Memory_budget n ->
    Json.Obj [ ("tag", Json.String "memory-budget"); ("value", Json.Int n) ]
  | Runctl.Cancelled -> Json.Obj [ ("tag", Json.String "cancelled") ]

let outcome_to_json = function
  | Query.Holds -> Json.Obj [ ("kind", Json.String "holds") ]
  | Query.Fails trace ->
    Json.Obj
      [ ("kind", Json.String "fails");
        ( "trace",
          match trace with
          | None -> Json.Null
          | Some steps -> Json.List (List.map (fun s -> Json.String s) steps) )
      ]
  | Query.Sup s ->
    Json.Obj [ ("kind", Json.String "sup"); ("sup", sup_to_json s) ]
  | Query.Unknown (reason, partial) ->
    Json.Obj
      [ ("kind", Json.String "unknown");
        ("reason", reason_to_json reason);
        ( "partial",
          match partial with None -> Json.Null | Some s -> sup_to_json s ) ]

let stats_to_json (s : Explorer.stats) =
  Json.Obj
    [ ("visited", Json.Int s.visited);
      ("stored", Json.Int s.stored);
      ("frontier", Json.Int s.frontier) ]

let opt_int_json = function None -> Json.Null | Some n -> Json.Int n
let opt_float_json = function None -> Json.Null | Some f -> Json.Float f

let to_json e =
  Json.Obj
    [ ("key", Json.String (Keys.D128.to_hex e.en_key));
      ("query", Json.String e.en_query);
      ("outcome", outcome_to_json e.en_outcome);
      ("stats", stats_to_json e.en_stats);
      ( "budget",
        Json.Obj
          [ ("limit", Json.Int e.en_budget.bg_limit);
            ("states", opt_int_json e.en_budget.bg_states);
            ("time_s", opt_float_json e.en_budget.bg_time_s);
            ("mem_bytes", opt_int_json e.en_budget.bg_mem_bytes) ] );
      ( "provenance",
        Json.Obj
          [ ("tool", Json.String e.en_prov.pv_tool);
            ("jobs", Json.Int e.en_prov.pv_jobs);
            ("wall_ms", Json.Float e.en_prov.pv_wall_ms);
            ("created", Json.Float e.en_prov.pv_created) ] ) ]

(* decoding: a tiny result monad keyed on field names, so corruption
   reports say which field was bad *)

let ( let* ) r f = Result.bind r f

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let coerce name conv j =
  let* v = field name j in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S has the wrong type" name)

let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let sup_of_json j =
  let* kind = coerce "kind" Json.to_str j in
  match kind with
  | "unreached" -> Ok Explorer.Sup_unreached
  | "value" ->
    let* v = coerce "value" Json.to_int j in
    let* strict = coerce "strict" Json.to_bool j in
    Ok (Explorer.Sup (v, strict))
  | "exceeds" ->
    let* c = coerce "ceiling" Json.to_int j in
    Ok (Explorer.Sup_exceeds c)
  | k -> Error (Printf.sprintf "unknown sup kind %S" k)

let reason_of_json j =
  let* tag = coerce "tag" Json.to_str j in
  match tag with
  | "time-budget" ->
    let* v = coerce "value" Json.to_float j in
    Ok (Runctl.Time_budget v)
  | "state-budget" ->
    let* v = coerce "value" Json.to_int j in
    Ok (Runctl.State_budget v)
  | "memory-budget" ->
    let* v = coerce "value" Json.to_int j in
    Ok (Runctl.Memory_budget v)
  | "cancelled" -> Ok Runctl.Cancelled
  | t -> Error (Printf.sprintf "unknown interrupt reason %S" t)

let outcome_of_json j =
  let* kind = coerce "kind" Json.to_str j in
  match kind with
  | "holds" -> Ok Query.Holds
  | "fails" -> (
    match Json.member "trace" j with
    | None | Some Json.Null -> Ok (Query.Fails None)
    | Some (Json.List items) ->
      let rec strings acc = function
        | [] -> Ok (Query.Fails (Some (List.rev acc)))
        | Json.String s :: rest -> strings (s :: acc) rest
        | _ -> Error "trace step is not a string"
      in
      strings [] items
    | Some _ -> Error "field \"trace\" has the wrong type")
  | "sup" ->
    let* s = field "sup" j in
    let* s = sup_of_json s in
    Ok (Query.Sup s)
  | "unknown" ->
    let* r = field "reason" j in
    let* reason = reason_of_json r in
    let* partial =
      match Json.member "partial" j with
      | None | Some Json.Null -> Ok None
      | Some s ->
        let* s = sup_of_json s in
        Ok (Some s)
    in
    Ok (Query.Unknown (reason, partial))
  | k -> Error (Printf.sprintf "unknown outcome kind %S" k)

let stats_of_json j =
  let* visited = coerce "visited" Json.to_int j in
  let* stored = coerce "stored" Json.to_int j in
  let* frontier = coerce "frontier" Json.to_int j in
  Ok { Explorer.visited; stored; frontier }

let of_json j =
  let* key_hex = coerce "key" Json.to_str j in
  let* en_key =
    match Keys.D128.of_hex key_hex with
    | Some k -> Ok k
    | None -> Error "field \"key\" is not a 128-bit hex digest"
  in
  let* en_query = coerce "query" Json.to_str j in
  let* oc = field "outcome" j in
  let* en_outcome = outcome_of_json oc in
  let* st = field "stats" j in
  let* en_stats = stats_of_json st in
  let* bj = field "budget" j in
  let* bg_limit = coerce "limit" Json.to_int bj in
  let* bg_states = opt_field "states" Json.to_int bj in
  let* bg_time_s = opt_field "time_s" Json.to_float bj in
  let* bg_mem_bytes = opt_field "mem_bytes" Json.to_int bj in
  let* pj = field "provenance" j in
  let* pv_tool = coerce "tool" Json.to_str pj in
  let* pv_jobs = coerce "jobs" Json.to_int pj in
  let* pv_wall_ms = coerce "wall_ms" Json.to_float pj in
  let* pv_created = coerce "created" Json.to_float pj in
  Ok
    { en_key;
      en_query;
      en_outcome;
      en_stats;
      en_budget = { bg_limit; bg_states; bg_time_s; bg_mem_bytes };
      en_prov = { pv_tool; pv_jobs; pv_wall_ms; pv_created } }

let pp ppf e =
  let kind =
    match e.en_outcome with
    | Query.Holds -> "holds"
    | Query.Fails _ -> "fails"
    | Query.Sup _ -> "sup"
    | Query.Unknown _ -> "unknown"
  in
  Fmt.pf ppf "%s %s [%s]" (Keys.D128.to_hex e.en_key) e.en_query kind;
  match e.en_outcome with
  | Query.Sup s -> Fmt.pf ppf " %a" Explorer.pp_sup_result s
  | _ -> ()
