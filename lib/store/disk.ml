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

let is_store dir = Sys.file_exists (marker_path dir)

(* A read that failed on a file that is no longer there lost a race
   with the file's removal ([gc], [remove], another process): that is a
   miss, not a sick store, so it is neither retried nor reported. *)
exception Gone

(* All host I/O below goes through [t.io] wrapped in the retry policy,
   so transient faults (injected or real) are absorbed before they can
   surface; what escapes is persistent unavailability. *)
let read_file t path =
  Fault.Retry.run ~policy:t.retry ~label:"store-read" (fun () ->
      try t.io.Fault.Io.read_file path
      with (Sys_error _ | Unix.Unix_error _)
        when not (t.io.Fault.Io.file_exists path) -> raise Gone)

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

type 'a read =
  | Hit of 'a
  | Miss
  | Corrupt of string
  | Unavailable of string

type lookup = Entry.t read

(* The frame's digest and length are checked before [decode] runs. *)
let decode_framed ~magic ~decode raw =
  match Keys.Frame.unframe ~magic raw with
  | Ok payload -> (
    match decode payload with Ok v -> Hit v | Error msg -> Corrupt msg)
  | Error (Keys.Frame.Corrupt msg) -> Corrupt msg
  | Error (Keys.Frame.Version v) ->
    Corrupt (Printf.sprintf "version %S (this build reads %S)" v magic)
  | Error Keys.Frame.Foreign -> Corrupt (Printf.sprintf "not a %s file" magic)

(* I/O-level failure (retries exhausted) is [Unavailable] — the device
   or directory is sick, and the cache layer's circuit breaker feeds on
   it.  A readable file with bad content is [Corrupt] — the host is
   fine, the data is not, so it does not count against the breaker. *)
let read_with t ~decode path =
  if not (t.io.Fault.Io.file_exists path) then Miss
  else
    match read_file t path with
    | raw -> decode raw
    | exception Gone -> Miss
    | exception Sys_error msg -> Unavailable msg
    | exception Unix.Unix_error (e, op, _) ->
      Unavailable (Printf.sprintf "%s: %s" op (Unix.error_message e))

let read_framed t ~magic name =
  read_with t ~decode:(decode_framed ~magic ~decode:Result.ok)
    (Filename.concat t.dir name)

let decode_entry raw =
  decode_framed ~magic:version raw ~decode:(fun payload ->
      Result.bind (Json.parse payload) Entry.of_json)

let read_entry t name = read_with t ~decode:decode_entry (Filename.concat t.dir name)

(* The lookup memo: per domain, each entry file a lookup decoded, with
   the bytes it read and the entry decoded from them.  A lookup still
   reads the file; only when the bytes are the remembered ones does it
   skip the frame check and the JSON decode.  Decoding is a pure
   function of the bytes, so a remembered entry is exactly what a fresh
   decode would give: a replaced, truncated or removed file is judged as
   if there were no memo.  The memo counts the files it holds, and at
   [memo_cap] files it starts over.  The value is immutable, so threads
   sharing a domain can at worst lose an update. *)
let memo_cap = 256

module Memo = Map.Make (String)

let memo : (int * (string * Entry.t) Memo.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (0, Memo.empty))

let decode_remembered path raw =
  let n, seen = Domain.DLS.get memo in
  let known = Memo.find_opt path seen in
  match known with
  | Some (bytes, e) when String.equal bytes raw -> Hit e
  | _ -> (
    match decode_entry raw with
    | Hit e as hit ->
      let n, seen =
        if Option.is_some known then (n, seen)
        else if n >= memo_cap then (1, Memo.empty)
        else (n + 1, seen)
      in
      Domain.DLS.set memo (n, Memo.add path (raw, e) seen);
      hit
    | r -> r)

let lookup t key =
  let path = Filename.concat t.dir (entry_name key) in
  match read_with t ~decode:(decode_remembered path) path with
  | Hit e when not (Keys.D128.equal e.Entry.en_key key) ->
    Corrupt "entry key does not match file name"
  | r -> r

let write_framed t ~magic name payload =
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  match
    write_file t tmp (Keys.Frame.frame ~magic payload);
    rename t tmp (Filename.concat t.dir name)
  with
  | () -> ()
  | exception exn ->
    (* Leave no trash behind a failed publish; the file is ours alone
       (pid + counter), so removing it never races another writer. *)
    (try t.io.Fault.Io.remove tmp with _ -> ());
    raise exn

let insert t entry =
  write_framed t ~magic:version (entry_name entry.Entry.en_key)
    (Json.to_string (Entry.to_json entry))

let remove_file t name =
  match t.io.Fault.Io.remove (Filename.concat t.dir name) with
  | () -> true
  | exception (Sys_error _ | Unix.Unix_error _) -> false

let remove t key = ignore (remove_file t (entry_name key))

let files t ~suffix =
  t.io.Fault.Io.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort String.compare

let entry_files t = files t ~suffix:".psve"

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
      match read_entry t file with
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
      let bytes = t.io.Fault.Io.file_size (Filename.concat t.dir file) in
      match read_entry t file with
      | Hit _ ->
        { acc with st_entries = acc.st_entries + 1; st_bytes = acc.st_bytes + bytes }
      | Miss | Corrupt _ | Unavailable _ ->
        { acc with
          st_corrupt = acc.st_corrupt + 1;
          st_corrupt_bytes = acc.st_corrupt_bytes + bytes })
    { st_entries = 0; st_corrupt = 0; st_bytes = 0; st_corrupt_bytes = 0 }
    (entry_files t)

let gc t =
  Array.fold_left
    (fun removed file ->
      let orphan_tmp = is_tmp file && not (tmp_owner_alive file) in
      let corrupt =
        Filename.check_suffix file ".psve"
        && match read_entry t file with Corrupt _ -> true | _ -> false
      in
      if (orphan_tmp || corrupt) && remove_file t file then removed + 1
      else removed)
    0
    (t.io.Fault.Io.readdir t.dir)

type fsck_report = {
  fk_ok : int;
  fk_bad : (string * string) list;
  fk_tmp : string list;
}

let fsck t =
  let report =
    List.fold_left
      (fun acc file ->
        match read_entry t file with
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
