let version = "PSVSTORE1"
let marker = "PSVSTORE"

type t = { dir : string; io : Fault.Io.t; retry : Fault.Retry.policy }

(* Temp names must be unique per concurrent writer.  The pid separates
   processes; this process-global counter separates handles and domains
   within one process (a per-handle counter would collide when two
   domains each open their own handle on the same directory). *)
let tmp_counter = Atomic.make 0

let dir t = t.dir
let marker_path dir = Filename.concat dir marker
let entry_name key = Keys.D128.to_hex key ^ ".psve"
let entry_path t key = Filename.concat t.dir (entry_name key)

let is_store dir = Sys.file_exists (marker_path dir)

(* All host I/O below goes through [t.io] wrapped in the retry policy,
   so transient faults (injected or real) are absorbed before they can
   surface; what escapes is persistent unavailability. *)
let read_file t path =
  Fault.Retry.run ~policy:t.retry ~label:"store-read" (fun () ->
      t.io.Fault.Io.read_file path)

let write_file t path content =
  Fault.Retry.run ~policy:t.retry ~label:"store-write" (fun () ->
      t.io.Fault.Io.write_file path content)

let rename t src dst =
  Fault.Retry.run ~policy:t.retry ~label:"store-rename" (fun () ->
      t.io.Fault.Io.rename src dst)

let open_ ?(io = Fault.Io.real) ?(retry = Fault.Retry.default) ?(create = true)
    path =
  let t = { dir = path; io; retry } in
  if io.Fault.Io.file_exists path then
    if not (io.Fault.Io.is_directory path) then
      Error (Printf.sprintf "%s exists and is not a directory" path)
    else if is_store path then Ok t
    else if create && io.Fault.Io.readdir path = [||] then begin
      write_file t (marker_path path) (version ^ "\n");
      Ok t
    end
    else
      Error
        (Printf.sprintf "%s is not a psv result store (no %s marker)" path
           marker)
  else if create then begin
    (try io.Fault.Io.mkdir path 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    write_file t (marker_path path) (version ^ "\n");
    Ok t
  end
  else Error (Printf.sprintf "%s does not exist" path)

let open_existing ?io ?retry path = open_ ?io ?retry ~create:false path

type lookup =
  | Hit of Entry.t
  | Miss
  | Corrupt of string
  | Unavailable of string

(* Parse one entry file body. The digest and length lines guard the
   payload: both are checked before the JSON parser runs, so truncation
   and bit rot surface as [Error] here, not as a parse crash. *)
let decode_entry raw =
  let ( let* ) = Result.bind in
  let line_end from =
    match String.index_from_opt raw from '\n' with
    | Some i -> Ok i
    | None -> Error "truncated header"
  in
  let* e1 = line_end 0 in
  let magic = String.sub raw 0 e1 in
  let* () =
    if magic = version then Ok ()
    else if String.length magic >= 8 && String.sub magic 0 8 = "PSVSTORE" then
      Error (Printf.sprintf "entry version %S (this build reads %S)" magic version)
    else Error "not a psv store entry"
  in
  let* e2 = line_end (e1 + 1) in
  let digest_hex = String.sub raw (e1 + 1) (e2 - e1 - 1) in
  let* digest =
    match Keys.D128.of_hex digest_hex with
    | Some d -> Ok d
    | None -> Error "bad payload digest line"
  in
  let* e3 = line_end (e2 + 1) in
  let* len =
    match int_of_string_opt (String.sub raw (e2 + 1) (e3 - e2 - 1)) with
    | Some n when n >= 0 -> Ok n
    | _ -> Error "bad payload length line"
  in
  let body_start = e3 + 1 in
  let* () =
    if String.length raw - body_start = len then Ok ()
    else Error "payload length mismatch (truncated entry?)"
  in
  let payload = String.sub raw body_start len in
  let* () =
    if Keys.D128.equal (Keys.D128.of_string payload) digest then Ok ()
    else Error "payload digest mismatch"
  in
  let* json = Json.parse payload in
  Entry.of_json json

(* I/O-level failure (retries exhausted) is [Unavailable] — the device
   or directory is sick, and the cache layer's circuit breaker feeds on
   it.  A readable file with bad content is [Corrupt] — the host is
   fine, the data is not, so it does not count against the breaker. *)
let read_entry t path =
  match read_file t path with
  | raw -> (
    match decode_entry raw with
    | Ok e -> Hit e
    | Error msg -> Corrupt msg)
  | exception Sys_error msg -> Unavailable msg
  | exception Unix.Unix_error (e, op, _) ->
    Unavailable (Printf.sprintf "%s: %s" op (Unix.error_message e))

let lookup t key =
  let path = entry_path t key in
  if not (t.io.Fault.Io.file_exists path) then Miss
  else
    match read_entry t path with
    | Hit e when not (Keys.D128.equal e.Entry.en_key key) ->
      Corrupt "entry key does not match file name"
    | r -> r

let encode_entry entry =
  let payload = Json.to_string (Entry.to_json entry) in
  Printf.sprintf "%s\n%s\n%d\n%s" version
    (Keys.D128.to_hex (Keys.D128.of_string payload))
    (String.length payload) payload

let insert t entry =
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  match
    write_file t tmp (encode_entry entry);
    rename t tmp (entry_path t entry.Entry.en_key)
  with
  | () -> ()
  | exception exn ->
    (* Leave no trash behind a failed publish; the file is ours alone
       (pid + counter), so removing it never races another writer. *)
    (try t.io.Fault.Io.remove tmp with _ -> ());
    raise exn

let remove t key =
  try t.io.Fault.Io.remove (entry_path t key) with
  | Sys_error _ | Unix.Unix_error _ -> ()

let entry_files t =
  t.io.Fault.Io.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".psve")
  |> List.sort String.compare

(* [.tmp.<pid>.<n>] files belong to a live writer mid-publish or to a
   writer that died between write and rename.  Liveness is decided by
   signal-0 probe; unparsable names count as orphans. *)
let tmp_owner_alive file =
  match String.split_on_char '.' file with
  | [ ""; "tmp"; pid; _n ] -> (
    match int_of_string_opt pid with
    | None -> false
    | Some pid -> (
      match Unix.kill pid 0 with
      | () -> true
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
      | exception Unix.Unix_error _ -> true))
  | _ -> false

let is_tmp file = String.length file > 4 && String.sub file 0 4 = ".tmp"

let orphan_tmp_files t =
  t.io.Fault.Io.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> is_tmp f && not (tmp_owner_alive f))
  |> List.sort String.compare

let default_warn msg = Printf.eprintf "psv: store: warning: %s\n%!" msg

let fold ?(warn = default_warn) t ~init ~f =
  List.fold_left
    (fun acc file ->
      match read_entry t (Filename.concat t.dir file) with
      | Hit e -> f acc e
      | Miss -> acc
      | Corrupt msg | Unavailable msg ->
        warn (Printf.sprintf "skipping %s: %s" file msg);
        acc)
    init (entry_files t)

type stats = {
  st_entries : int;
  st_corrupt : int;
  st_bytes : int;
  st_corrupt_bytes : int;
}

let stats t =
  List.fold_left
    (fun acc file ->
      let path = Filename.concat t.dir file in
      let bytes = t.io.Fault.Io.file_size path in
      match read_entry t path with
      | Hit _ ->
        { acc with st_entries = acc.st_entries + 1; st_bytes = acc.st_bytes + bytes }
      | Miss | Corrupt _ | Unavailable _ ->
        { acc with
          st_corrupt = acc.st_corrupt + 1;
          st_corrupt_bytes = acc.st_corrupt_bytes + bytes })
    { st_entries = 0; st_corrupt = 0; st_bytes = 0; st_corrupt_bytes = 0 }
    (entry_files t)

let gc t =
  let removed = ref 0 in
  Array.iter
    (fun file ->
      let path = Filename.concat t.dir file in
      let orphan_tmp = is_tmp file && not (tmp_owner_alive file) in
      let corrupt =
        Filename.check_suffix file ".psve"
        && match read_entry t path with Corrupt _ -> true | _ -> false
      in
      if orphan_tmp || corrupt then begin
        try
          t.io.Fault.Io.remove path;
          incr removed
        with Sys_error _ | Unix.Unix_error _ -> ()
      end)
    (t.io.Fault.Io.readdir t.dir);
  !removed

type fsck_report = {
  fk_ok : int;
  fk_bad : (string * string) list;
  fk_tmp : string list;
}

let fsck t =
  let report =
    List.fold_left
      (fun acc file ->
        match read_entry t (Filename.concat t.dir file) with
        | Hit e ->
          if entry_name e.Entry.en_key = file then { acc with fk_ok = acc.fk_ok + 1 }
          else
            { acc with
              fk_bad = (file, "entry key does not match file name") :: acc.fk_bad }
        | Miss -> acc
        | Corrupt msg | Unavailable msg ->
          { acc with fk_bad = (file, msg) :: acc.fk_bad })
      { fk_ok = 0; fk_bad = []; fk_tmp = [] }
      (entry_files t)
  in
  { report with fk_tmp = orphan_tmp_files t }
