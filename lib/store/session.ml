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
let path disk name = Filename.concat (Disk.dir disk) name

(* Same framing as PSVSTORE1 entries: magic, payload digest, payload
   length, payload.  The digest is verified before the payload is
   interpreted, so truncation and bit rot surface as [Error], never as
   a parse crash (or, for graphs, a [Marshal] segfault).  The header and
   the payload go through the channel as separate strings: a graph
   payload runs to megabytes, and each whole-file copy of it would be
   one more allocation of that size. *)
let read_framed magic p =
  let ( let* ) = Result.bind in
  let unframe ic =
    let line () =
      match In_channel.input_line ic with
      | Some l -> Ok l
      | None -> Error "truncated header"
    in
    let* m = line () in
    let* () = if m = magic then Ok () else Error "bad magic" in
    let* d = line () in
    let* digest =
      match Keys.D128.of_hex d with
      | Some d -> Ok d
      | None -> Error "bad payload digest line"
    in
    let* l = line () in
    let* len =
      match int_of_string_opt l with
      | Some n when n >= 0 -> Ok n
      | _ -> Error "bad payload length line"
    in
    let* () =
      if in_channel_length ic - pos_in ic = len then Ok ()
      else Error "payload length mismatch (truncated?)"
    in
    let payload = really_input_string ic len in
    if Keys.D128.equal (Keys.D128.of_string payload) digest then Ok payload
    else Error "payload digest mismatch"
  in
  match In_channel.with_open_bin p unframe with
  | r -> r
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error "payload length mismatch (truncated?)"

(* Atomic publish via tmp + rename, mirroring [Disk.insert]. *)
let tmp_counter = Atomic.make 0

let write_framed disk name magic payload =
  let tmp =
    Filename.concat (Disk.dir disk)
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s\n%s\n%d\n" magic
          (Keys.D128.to_hex (Keys.D128.of_string payload))
          (String.length payload);
        output_string oc payload);
    Unix.rename tmp (path disk name)
  with
  | () -> ()
  | exception exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

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
  write_framed disk
    (sess_name (session_key ~tag:s.ss_tag ~query:s.ss_query))
    magic_sess
    (Json.to_string (to_json s))

let load disk key =
  let p = path disk (sess_name key) in
  if not (Sys.file_exists p) then Error "no session"
  else
    let ( let* ) = Result.bind in
    let* payload = read_framed magic_sess p in
    let* json = Json.parse payload in
    of_json json

let save_graph disk key blob =
  write_framed disk (graph_name key) magic_graph blob

let load_graph disk key =
  let p = path disk (graph_name key) in
  if not (Sys.file_exists p) then None
  else Result.to_option (read_framed magic_graph p)

let remove disk key =
  List.iter
    (fun name ->
      try Sys.remove (path disk name) with Sys_error _ -> ())
    [ sess_name key; graph_name key ]

let files disk suffix =
  match Sys.readdir (Disk.dir disk) with
  | exception Sys_error _ -> []
  | arr ->
    Array.to_list arr
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.sort String.compare

let list disk = files disk ".psvs"

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
  let* payload = read_framed magic_sess (path disk file) in
  let* json = Json.parse payload in
  let* s = of_json json in
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

let check_graph disk file =
  Result.map ignore (read_framed magic_graph (path disk file))

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
      acc (files disk ".psvg")
  in
  { acc with sk_bad = List.rev acc.sk_bad }

let gc disk =
  let removed = ref 0 in
  let sweep suffix check =
    List.iter
      (fun file ->
        match check disk file with
        | Ok () -> ()
        | Error _ -> (
          try
            Sys.remove (path disk file);
            incr removed
          with Sys_error _ -> ()))
      (files disk suffix)
  in
  sweep ".psvs" check_session;
  sweep ".psvg" check_graph;
  !removed
