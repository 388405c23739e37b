(* The benchmark's one entry point.

     bench.exe --workload NAME --seed S [--seconds N] [--trace 0|1|FILE]
               [--json OUT]
     bench.exe --compare A.json B.json
     bench.exe --print-reference table1|sweep-grid

   A run measures one workload for about --seconds, checks every answer
   against a reference, prints each metric by name and unit on stderr,
   and prints as its last stdout line one JSON object with the keys
   correct, attempted, failed and metrics.  Untraced runs report the
   end-to-end metrics; a traced run (--trace 1, or --trace FILE, which
   also writes the spans there as LDJSON) reports the per-layer ones.
   --json appends the run's record, report included, to OUT: the input
   of --compare.  Exit 1 when an answer was wrong, 2 on a usage error
   or a run that could not complete. *)

open Common

let workloads =
  [ ("table1", Wl_table1.run);
    ("serve-mix", Wl_serve.run);
    ("sweep-grid", Wl_sweep.run);
    ("fuzz-corpus", Wl_fuzz.run);
    ("edit-loop", Wl_edit.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed S [--seconds N] [--trace 0|1|FILE] \
     [--json OUT]\n\
    \       bench.exe --compare A.json B.json\n\
    \       bench.exe --print-reference table1|sweep-grid\n\
     workloads: table1 serve-mix sweep-grid fuzz-corpus edit-loop";
  exit 2

(* All digits of the measured value; JSON has no NaN. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (number m.m_value)
             m.m_unit)
         ms)
  ^ "}"

let run_workload ~name ~seed ~seconds ~trace ~json_out =
  let f =
    match List.assoc_opt name workloads with Some f -> f | None -> usage ()
  in
  let spans_out =
    match trace with "0" | "1" -> None | path -> Some path
  in
  let root = ".perfbench" in
  let scratch = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p scratch;
  Filename.set_temp_dir_name scratch;
  let cfg = { seed; seconds; trace = trace <> "0"; scratch } in
  let result =
    Fun.protect
      ~finally:(fun () ->
        rm_rf scratch;
        try Unix.rmdir root with Unix.Unix_error _ -> ())
      (fun () -> f cfg)
  in
  Option.iter Trace.write_spans spans_out;
  let correct =
    result.failed = 0 && result.attempted > 0
    && List.for_all (fun m -> Float.is_finite m.m_value) result.metrics
  in
  Printf.eprintf "%s seed %d: %d ops checked, %d failed\n" name seed result.attempted
    result.failed;
  List.iter
    (fun m -> Printf.eprintf "  %-24s %14.6g %s\n" m.m_name m.m_value m.m_unit)
    result.metrics;
  List.iter
    (fun (k, v) -> Printf.eprintf "  %-24s %s\n" k (Store.Json.to_string v))
    result.report;
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      correct result.attempted result.failed (metrics_json result.metrics)
  in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Printf.fprintf oc
        "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"traced\": %b, \"correct\": \
         %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s, \"report\": %s}\n"
        name seed (number seconds) cfg.trace correct result.attempted result.failed
        (metrics_json result.metrics)
        (Store.Json.to_string (Store.Json.Obj result.report));
      close_out oc)
    json_out;
  print_endline line;
  if not correct then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; a; b ] -> exit (Compare.run a b)
  | [ "--print-reference"; "table1" ] ->
    print_endline (Store.Json.to_string (Reference.table1_json ()))
  | [ "--print-reference"; "sweep-grid" ] ->
    print_endline (Store.Json.to_string (Wl_sweep.reference_json ()))
  | args ->
    let name = ref None and seed = ref None and seconds = ref 15.
    and trace = ref "0" and json_out = ref None in
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: rest -> name := Some v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
      | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
         | Some s when s > 0. -> seconds := s
         | _ -> usage ());
        parse rest
      | "--trace" :: v :: rest -> trace := v; parse rest
      | "--json" :: v :: rest -> json_out := Some v; parse rest
      | _ -> usage ()
    in
    parse args;
    (match (!name, !seed) with
     | Some name, Some seed -> (
       try
         run_workload ~name ~seed ~seconds:!seconds ~trace:!trace
           ~json_out:!json_out
       with Failure msg | Sys_error msg ->
         prerr_endline ("perfbench: " ^ msg);
         exit 2)
     | _ -> usage ())
