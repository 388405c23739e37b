(* The committed expected answers (perfbench/expected/, read relative to
   the repository root) and the mode that regenerates them from scratch:
   [bench.exe --print-reference table1|sweep-grid]. *)

open Common

let dir = Filename.concat "perfbench" "expected"

let load name =
  let path = Filename.concat dir name in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> failwith ("reference answers: " ^ msg)
  | text -> (
    match Store.Json.parse text with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "reference answers %s: %s" path msg))

let field name conv j =
  match Option.bind (Store.Json.member name j) conv with
  | Some v -> v
  | None -> failwith ("reference answers: missing field " ^ name)

(* table1: query name -> [result_text] of the expected answer (outcome,
   visited and stored count). *)
let table1 () =
  List.map
    (fun q ->
      let outcome = field "outcome" Option.some q in
      ( field "name" Store.Json.to_str q,
        Printf.sprintf "%s visited=%d stored=%d"
          (Store.Json.to_string outcome)
          (field "visited" Store.Json.to_int q)
          (field "stored" Store.Json.to_int q) ))
    (field "queries" Store.Json.to_list (load "table1.json"))

let table1_json () =
  let row p =
    let r = Mc.Query.eval p.p_net p.p_query in
    Store.Json.Obj
      [ ("name", Store.Json.String p.p_name);
        ("query", Store.Json.String (Mc.Query.to_string p.p_query));
        ( "outcome",
          Store.Entry.outcome_to_json
            (Analysis.Qcache.outcome_to_entry r.Mc.Query.res_outcome) );
        ("visited", Store.Json.Int r.Mc.Query.res_stats.Mc.Explorer.visited);
        ("stored", Store.Json.Int r.Mc.Query.res_stats.Mc.Explorer.stored) ]
  in
  Store.Json.Obj [ ("queries", Store.Json.List (List.map row (table1_suite ()))) ]

(* sweep-grid: the digest of the per-point verdict string of an
   explorer-everywhere run, plus its verdict counts. *)
let verdict_char = function
  | Analysis.Sweep.Pass -> 'P'
  | Analysis.Sweep.Fail -> 'F'
  | Analysis.Sweep.Unknown -> 'U'
  | Analysis.Sweep.Invalid -> 'I'

let digest verdicts = Digest.to_hex (Digest.string verdicts)

let sweep_grid () =
  let j = load "sweep_grid.json" in
  (field "points" Store.Json.to_int j, field "digest" Store.Json.to_str j)
