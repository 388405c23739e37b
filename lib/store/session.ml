let magic_sess = "PSVSESS1"
let magic_graph = "PSVGRAPH1"
let schema = "psv-sess-v1"

type t = {
  ss_tag : string;
  ss_query : string;
  ss_net : string;
  ss_result_key : Keys.D128.t;
  ss_manifest : Keys.Key.manifest;
}

let session_key ~tag ~query =
  let st = Keys.D128.builder () in
  Keys.D128.add_string st schema;
  Keys.D128.add_string st tag;
  Keys.D128.add_string st query;
  Keys.D128.value st

let sess_name key = Keys.D128.to_hex key ^ ".psvs"
let graph_name key = Keys.D128.to_hex key ^ ".psvg"

let manifest_to_json (m : Keys.Key.manifest) =
  Json.Obj
    [
      ("decls", Json.String (Keys.D128.to_hex m.Keys.Key.mf_decls));
      ( "automata",
        Json.List
          (List.map
             (fun (name, d) ->
               Json.List [ Json.String name; Json.String (Keys.D128.to_hex d) ])
             m.Keys.Key.mf_automata) );
    ]

let manifest_of_json j =
  let ( let* ) = Option.bind in
  let* decls = Json.member "decls" j in
  let* decls = Json.to_str decls in
  let* decls = Keys.D128.of_hex decls in
  let* autos = Json.member "automata" j in
  let* autos = Json.to_list autos in
  let* autos =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Json.List [ Json.String name; Json.String hex ] ->
          let* d = Keys.D128.of_hex hex in
          Some ((name, d) :: acc)
        | _ -> None)
      (Some []) autos
  in
  Some { Keys.Key.mf_decls = decls; mf_automata = List.rev autos }

let to_json s =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("tag", Json.String s.ss_tag);
      ("query", Json.String s.ss_query);
      ("net", Json.String s.ss_net);
      ("result_key", Json.String (Keys.D128.to_hex s.ss_result_key));
      ("manifest", manifest_to_json s.ss_manifest);
    ]

let of_json j =
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let* sc = str "schema" in
  let* () = if sc = schema then Ok () else Error ("unknown schema " ^ sc) in
  let* ss_tag = str "tag" in
  let* ss_query = str "query" in
  let* ss_net = str "net" in
  let* key_hex = str "result_key" in
  let* ss_result_key =
    match Keys.D128.of_hex key_hex with
    | Some k -> Ok k
    | None -> Error "bad result_key"
  in
  let* ss_manifest =
    match Option.bind (Json.member "manifest" j) manifest_of_json with
    | Some m -> Ok m
    | None -> Error "bad manifest"
  in
  Ok { ss_tag; ss_query; ss_net; ss_result_key; ss_manifest }

let save disk s =
  Disk.write_framed disk ~magic:magic_sess
    (sess_name (session_key ~tag:s.ss_tag ~query:s.ss_query))
    (Json.to_string (to_json s))

let payload disk ~magic ~absent name =
  match Disk.read_framed disk ~magic name with
  | Disk.Hit payload -> Ok payload
  | Disk.Miss -> Error absent
  | Disk.Corrupt msg | Disk.Unavailable msg -> Error msg

let read disk name =
  Result.bind
    (payload disk ~magic:magic_sess ~absent:"no session" name)
    (fun p -> Result.bind (Json.parse p) of_json)

let load disk key = read disk (sess_name key)

let save_graph disk key blob =
  Disk.write_framed disk ~magic:magic_graph (graph_name key) blob

let read_graph disk name =
  payload disk ~magic:magic_graph ~absent:"no graph" name

let load_graph disk key = Result.to_option (read_graph disk (graph_name key))

let list disk = Disk.files disk ~suffix:".psvs"

type fsck = {
  sk_ok : int;
  sk_bad : (string * string) list;
  sk_graphs : int;
}

(* A session passes fsck only if its stored manifest matches a fresh
   recomputation from the stored network text — digest per automaton,
   not just the roll-up — so a stale or hand-edited manifest is caught
   even when the framing digest is internally consistent. *)
let check_session disk file =
  let ( let* ) = Result.bind in
  let* s = read disk file in
  let* () =
    if sess_name (session_key ~tag:s.ss_tag ~query:s.ss_query) = file then Ok ()
    else Error "session key does not match file name"
  in
  let* net =
    match Xta.Parse.network s.ss_net with
    | Ok net -> Ok net
    | Error msg -> Error ("stored network does not parse: " ^ msg)
  in
  if Keys.Key.manifest_equal (Keys.Key.manifest net) s.ss_manifest then Ok ()
  else Error "manifest does not match recomputed per-automaton digests"

let check_graph disk file = Result.map ignore (read_graph disk file)

let fsck disk =
  let acc =
    List.fold_left
      (fun acc file ->
        match check_session disk file with
        | Ok () -> { acc with sk_ok = acc.sk_ok + 1 }
        | Error msg -> { acc with sk_bad = (file, msg) :: acc.sk_bad })
      { sk_ok = 0; sk_bad = []; sk_graphs = 0 }
      (list disk)
  in
  let acc =
    List.fold_left
      (fun acc file ->
        match check_graph disk file with
        | Ok () -> { acc with sk_graphs = acc.sk_graphs + 1 }
        | Error msg -> { acc with sk_bad = (file, msg) :: acc.sk_bad })
      acc
      (Disk.files disk ~suffix:".psvg")
  in
  { acc with sk_bad = List.rev acc.sk_bad }

let gc disk =
  let sweep suffix check =
    List.fold_left
      (fun removed file ->
        match check disk file with
        | Ok () -> removed
        | Error _ -> if Disk.remove_file disk file then removed + 1 else removed)
      0
      (Disk.files disk ~suffix)
  in
  let sessions = sweep ".psvs" check_session in
  sessions + sweep ".psvg" check_graph
