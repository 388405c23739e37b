(* The [psv] command line run as a child process, for the exit codes and
   diagnostics only the executable produces.  [dune runtest] runs the
   suite from [_build/default/test], next to [../bin]; [dune exec
   test/main.exe] runs it from the root, after [dune build]. *)

let exe =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "../bin/psv_cli.exe"; "_build/default/bin/psv_cli.exe" ]
     with
     | Some path -> path
     | None -> Alcotest.fail "psv_cli.exe not found: run dune build first")

(* [run args] is the exit code, stdout and stderr of [psv args]. *)
let run args =
  let out = Filename.temp_file "psv_cli" ".out"
  and err = Filename.temp_file "psv_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command (Lazy.force exe) args ~stdout:out ~stderr:err)
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err))

(* A scratch file holding [text], removed after [f path]. *)
let with_file ?(suffix = ".xta") text f =
  let path = Filename.temp_file "psv_cli" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
