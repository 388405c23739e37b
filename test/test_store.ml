(* Tests of the persistent result store: the 128-bit digest, the JSON
   codec, canonical query text, cache keys, the on-disk entry format
   (including corruption tolerance and concurrent writers), and the
   budget-dominance reuse rule. *)

let tmp_counter = ref 0

(* fresh store directory per test, removed afterwards *)
let with_store_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psv_store_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with _ -> ()) (fun () -> f dir)

(* --- D128 ---------------------------------------------------------------- *)

let test_d128_hex () =
  let d = Store.D128.of_string "hello" in
  let hex = Store.D128.to_hex d in
  Alcotest.(check int) "32 hex chars" 32 (String.length hex);
  (match Store.D128.of_hex hex with
   | Some d' -> Alcotest.(check bool) "round-trips" true (Store.D128.equal d d')
   | None -> Alcotest.fail "of_hex rejected its own to_hex");
  List.iter
    (fun bad ->
      match Store.D128.of_hex bad with
      | None -> ()
      | Some _ -> Alcotest.failf "of_hex accepted %S" bad)
    [ ""; "abc"; String.make 31 '0'; String.make 33 '0';
      String.make 31 '0' ^ "g" ]

let test_d128_sensitivity () =
  let digest parts =
    let st = Store.D128.builder () in
    List.iter (Store.D128.add_string st) parts;
    Store.D128.value st
  in
  (* deterministic *)
  Alcotest.(check bool) "stable" true
    (Store.D128.equal (digest [ "a"; "b" ]) (digest [ "a"; "b" ]));
  (* the length prefix keeps ["ab";"c"] and ["a";"bc"] apart even though
     the concatenated bytes agree *)
  Alcotest.(check bool) "length-prefixed" false
    (Store.D128.equal (digest [ "ab"; "c" ]) (digest [ "a"; "bc" ]));
  Alcotest.(check bool) "content-sensitive" false
    (Store.D128.equal (digest [ "a" ]) (digest [ "b" ]))

(* Golden vectors, computed with the original per-byte fold: every
   store key, session key and frame digest depends on these bits. *)
let mib_vector =
  String.init (1 lsl 20) (fun i -> Char.chr ((i * 131 + i / 7) land 0xff))

let test_d128_golden () =
  let hex = Alcotest.(check string) in
  hex "empty string" "a0971191a0cc277c4048d136ee8402da"
    (Store.D128.to_hex (Store.D128.of_string ""));
  hex "hello" "e0bab4dbc02c67fc1a1cc4d1eb76a334"
    (Store.D128.to_hex (Store.D128.of_string "hello"));
  let st = Store.D128.builder () in
  Store.D128.add_int st 42;
  Store.D128.add_int64 st (-1L);
  Store.D128.add_bool st true;
  Store.D128.add_char st 'x';
  Store.D128.add_int_array st [| 0; -7; max_int |];
  Store.D128.add_string st "psv";
  hex "every atom kind" "a12d6ba011bda41eac6b3d69588315c0"
    (Store.D128.to_hex (Store.D128.value st));
  hex "1 MiB vector" "7deaabd0bcfc43f4b4be055f77ac4bc1"
    (Store.D128.to_hex (Store.D128.of_string mib_vector))

type atom =
  | Int of int
  | Int64 of int64
  | Bool of bool
  | Char of char
  | Str of string
  | Ints of int array

let gen_atom =
  let open QCheck.Gen in
  frequency
    [ (2, map (fun n -> Int n) (oneof [ int; small_signed_int ]));
      (1, map (fun n -> Int64 n) ui64);
      (1, map (fun b -> Bool b) bool);
      (1, map (fun c -> Char c) char);
      (3, map (fun s -> Str s) (string_size (int_bound 300)));
      (1, map (fun a -> Ints a) (array_size (int_bound 20) int)) ]

let prop_d128_matches_reference =
  QCheck.Test.make ~name:"d128 = per-byte reference fold" ~count:2000
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 12) gen_atom))
    (fun atoms ->
      let st = Store.D128.builder () and rf = Ref_d128.builder () in
      List.iter
        (function
          | Int n -> Store.D128.add_int st n; Ref_d128.add_int rf n
          | Int64 n -> Store.D128.add_int64 st n; Ref_d128.add_int64 rf n
          | Bool b -> Store.D128.add_bool st b; Ref_d128.add_bool rf b
          | Char c -> Store.D128.add_char st c; Ref_d128.add_char rf c
          | Str s -> Store.D128.add_string st s; Ref_d128.add_string rf s
          | Ints a -> Store.D128.add_int_array st a; Ref_d128.add_int_array rf a)
        atoms;
      String.equal (Store.D128.to_hex (Store.D128.value st)) (Ref_d128.hex rf))

(* --- Json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let open Store.Json in
  let doc =
    Obj
      [ ("null", Null);
        ("flag", Bool true);
        ("n", Int (-42));
        ("big", Int max_int);
        ("f", Float 0.125);
        ("s", String "line\nquote\" back\\slash \t end");
        ("items", List [ Int 1; List []; Obj []; String "" ]) ]
  in
  match parse (to_string doc) with
  | Ok doc' ->
    Alcotest.(check bool) "round-trips" true (doc = doc');
    Alcotest.(check string) "re-encoding is byte-stable" (to_string doc)
      (to_string doc')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_errors () =
  let open Store.Json in
  List.iter
    (fun text ->
      match parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "{\"a\":1} trailing"; "\"unterm";
      "nul"; "\"raw\x01control\"" ];
  (match parse "\"a\\u00e9b\"" with
   | Ok (String s) -> Alcotest.(check string) "utf8 escape" "a\xc3\xa9b" s
   | _ -> Alcotest.fail "unicode escape");
  match parse "  {\"a\": [1, 2.5]}  " with
  | Ok (Obj [ ("a", List [ Int 1; Float 2.5 ]) ]) -> ()
  | _ -> Alcotest.fail "whitespace / number kinds"

(* --- Query.to_string ----------------------------------------------------- *)

let test_query_to_string_roundtrip () =
  let queries =
    [ "E<> Pump.Infusing";
      "A[] iovf_BolusReq == 0";
      "E<> (Pump.Idle and (n >= 3 or not Pump.Infusing))";
      "A[] not (a.b and c.d)";
      "E<> (true or (false and n != 7))";
      "sup: m_BolusReq -> c_StartInfusion ceiling 2000";
      "bounded: m_BolusReq -> c_StartInfusion within 500" ]
  in
  List.iter
    (fun text ->
      match Mc.Query.parse text with
      | Error msg -> Alcotest.failf "parse %S: %s" text msg
      | Ok q -> (
        let canon = Mc.Query.to_string q in
        match Mc.Query.parse canon with
        | Error msg -> Alcotest.failf "re-parse %S: %s" canon msg
        | Ok q' ->
          Alcotest.(check bool)
            (Printf.sprintf "%S -> %S round-trips" text canon)
            true (q = q')))
    queries

(* --- cache keys ----------------------------------------------------------- *)

let model_text =
  {|network cachetest;

clock x;
chan a, b;

process P {
  state
    Idle,
    Busy { x <= 5 };
  init Idle;
  trans
    Idle -> Busy { sync a!; reset x; },
    Busy -> Idle { guard x >= 1; sync b!; };
}

process Q {
  state S;
  init S;
  trans
    S -> S { sync a?; },
    S -> S { sync b?; };
}
|}

let parse_net text =
  match Xta.Parse.network text with
  | Ok net -> net
  | Error msg -> Alcotest.failf "model parse: %s" msg

let substitute text sub by =
  let n = String.length text and m = String.length sub in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub text !i m = sub then begin
      Buffer.add_string buf by;
      i := !i + m
    end
    else begin
      Buffer.add_char buf text.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_key_stability () =
  let net = parse_net model_text in
  let reparsed = parse_net (Xta.Print.to_string net) in
  Alcotest.(check bool) "digest survives a print/parse round-trip" true
    (Store.D128.equal
       (Store.Key.network_digest net)
       (Store.Key.network_digest reparsed));
  let q = "sup: a -> b ceiling 100" in
  Alcotest.(check bool) "full key too" true
    (Store.D128.equal
       (Store.Key.digest ~query:q net)
       (Store.Key.digest ~query:q reparsed))

let test_key_perturbation () =
  let base = Store.Key.network_digest (parse_net model_text) in
  let differs label text =
    Alcotest.(check bool) label false
      (Store.D128.equal base (Store.Key.network_digest (parse_net text)))
  in
  differs "bound tweak changes the digest"
    (substitute model_text "x <= 5" "x <= 6");
  differs "rename changes the digest" (substitute model_text "chan a, b" "chan c, b"
                                       |> fun t -> substitute t "sync a" "sync c");
  differs "edge reorder changes the digest"
    (substitute model_text
       "S -> S { sync a?; },\n    S -> S { sync b?; };"
       "S -> S { sync b?; },\n    S -> S { sync a?; };");
  let net = parse_net model_text in
  Alcotest.(check bool) "query text feeds the key" false
    (Store.D128.equal
       (Store.Key.digest ~query:"E<> P.Busy" net)
       (Store.Key.digest ~query:"E<> P.Idle" net))

(* Keys, digests and manifests computed before the canonical printer
   moved from Format to Buffer writers.  Every one must hold bit for
   bit: a moved key orphans every store entry, session and snapshot
   written before it. *)
let test_golden_keys () =
  let hex label expect d = Alcotest.(check string) label expect (Store.D128.to_hex d) in
  let psm = Test_xta.load_model "gpca_bolus_psm.xta" in
  let mimos = Test_xta.load_model "mimos_pipeline.xta" in
  let query text =
    match Mc.Query.parse text with
    | Ok q -> q
    | Error msg -> Alcotest.failf "query %S: %s" text msg
  in
  hex "network_digest gpca_bolus_psm" "2c16419bb93b4f9f2babb59b1a927aaa"
    (Store.Key.network_digest psm);
  hex "network_digest mimos_pipeline" "3649bc2b1386c4692cd4ebb414bc80ac"
    (Store.Key.network_digest mimos);
  hex "qcache key gpca_bolus_psm reach" "73ab009f1c824ad334edb0483a0e4eb2"
    (Analysis.Qcache.key psm (query "E<> Pump_IO.Infusing"));
  hex "qcache key gpca_bolus_psm sup" "1b7a2f45b4589247995be230c76c9ed4"
    (Analysis.Qcache.key psm
       (query "sup: m_BolusReq -> c_StartInfusion ceiling 2860"));
  let inst = Diff.Gen.instance ~seed:42 ~index:3 Diff.Gen.Psm_scheme in
  Alcotest.(check string) "generated query" "sup: m_req -> c_ack ceiling 64"
    (Mc.Query.to_string (Diff.Gen.query inst));
  hex "qcache key Psm_scheme seed 42 index 3" "6aaad603a24c72d6b634b353af9a71b0"
    (Analysis.Qcache.key inst.Diff.Gen.net (Diff.Gen.query inst));
  hex "manifest gpca_bolus_psm" "6c4bd17a33dcd4ecc8e40767902ae804"
    (Store.Key.manifest_digest (Store.Key.manifest psm));
  hex "manifest mimos_pipeline" "f946e89c4cf6361f0ef86592a4176064"
    (Store.Key.manifest_digest (Store.Key.manifest mimos))

(* --- entries -------------------------------------------------------------- *)

let sample_entry ?(key = Store.D128.of_string "k") ?(outcome = Mc.Query.Holds)
    ?(budget = Store.Entry.unlimited) () =
  { Store.Entry.en_key = key;
    en_query = "E<> P.Busy";
    en_outcome = outcome;
    en_stats = { Mc.Explorer.visited = 10; stored = 8; frontier = 0 };
    en_budget = budget;
    en_prov =
      { Store.Entry.pv_tool = "psv/test";
        pv_jobs = 1;
        pv_wall_ms = 12.5;
        pv_created = 1700000000.0 } }

let entry_eq = Alcotest.testable Store.Entry.pp (fun a b -> a = b)

let test_entry_json_roundtrip () =
  let outcomes =
    [ Mc.Query.Holds;
      Mc.Query.Fails None;
      Mc.Query.Fails (Some [ "step 1"; "step 2" ]);
      Mc.Query.Sup Mc.Explorer.Sup_unreached;
      Mc.Query.Sup (Mc.Explorer.Sup (440, false));
      Mc.Query.Sup (Mc.Explorer.Sup_exceeds 2000);
      Mc.Query.Unknown (Mc.Runctl.Time_budget 1.5, None);
      Mc.Query.Unknown
        (Mc.Runctl.State_budget 1000, Some (Mc.Explorer.Sup (7, true)));
      Mc.Query.Unknown (Mc.Runctl.Memory_budget 4096, None);
      Mc.Query.Unknown (Mc.Runctl.Cancelled, None) ]
  in
  List.iter
    (fun outcome ->
      let budget =
        { Store.Entry.bg_limit = 500_000;
          bg_states = Some 1000;
          bg_time_s = Some 1.5;
          bg_mem_bytes = None }
      in
      let e = sample_entry ~outcome ~budget () in
      match Store.Entry.of_json (Store.Entry.to_json e) with
      | Ok e' -> Alcotest.check entry_eq "entry round-trips" e e'
      | Error msg -> Alcotest.failf "of_json: %s" msg)
    outcomes

(* The bytes of every outcome shape, pinned: a round-trip cannot catch a
   renamed tag, and a store written by one build must be read by the
   next. *)
let entry_golden =
  let partial = Mc.Explorer.Sup (7, true) in
  let unknown r tag =
    [ ( Mc.Query.Unknown (r, None),
        {|{"kind":"unknown","reason":|} ^ tag ^ {|,"partial":null}|} );
      ( Mc.Query.Unknown (r, Some partial),
        {|{"kind":"unknown","reason":|} ^ tag
        ^ {|,"partial":{"kind":"value","value":7,"strict":true}}|} ) ]
  in
  [ (Mc.Query.Holds, {|{"kind":"holds"}|});
    (Mc.Query.Fails None, {|{"kind":"fails","trace":null}|});
    ( Mc.Query.Fails (Some [ "step 1"; "step 2" ]),
      {|{"kind":"fails","trace":["step 1","step 2"]}|} );
    ( Mc.Query.Sup Mc.Explorer.Sup_unreached,
      {|{"kind":"sup","sup":{"kind":"unreached"}}|} );
    ( Mc.Query.Sup (Mc.Explorer.Sup (440, false)),
      {|{"kind":"sup","sup":{"kind":"value","value":440,"strict":false}}|} );
    ( Mc.Query.Sup (Mc.Explorer.Sup (7, true)),
      {|{"kind":"sup","sup":{"kind":"value","value":7,"strict":true}}|} );
    ( Mc.Query.Sup (Mc.Explorer.Sup_exceeds 2000),
      {|{"kind":"sup","sup":{"kind":"exceeds","ceiling":2000}}|} ) ]
  @ unknown (Mc.Runctl.Time_budget 1.5) {|{"tag":"time-budget","value":1.5}|}
  @ unknown (Mc.Runctl.State_budget 1000)
      {|{"tag":"state-budget","value":1000}|}
  @ unknown (Mc.Runctl.Memory_budget 4096)
      {|{"tag":"memory-budget","value":4096}|}
  @ unknown Mc.Runctl.Cancelled {|{"tag":"cancelled"}|}

let golden_budget =
  { Store.Entry.bg_limit = 500_000;
    bg_states = Some 1000;
    bg_time_s = Some 1.5;
    bg_mem_bytes = None }

let golden_entry_bytes outcome_bytes =
  {|{"key":"113d20b2d4221555ba4bcf1475b2109f","query":"E<> P.Busy","outcome":|}
  ^ outcome_bytes
  ^ {|,"stats":{"visited":10,"stored":8,"frontier":0},|}
  ^ {|"budget":{"limit":500000,"states":1000,"time_s":1.5,"mem_bytes":null},|}
  ^ {|"provenance":{"tool":"psv/test","jobs":1,"wall_ms":12.5,"created":1700000000}}|}

let test_entry_json_golden () =
  List.iter
    (fun (outcome, outcome_bytes) ->
      let e = sample_entry ~outcome ~budget:golden_budget () in
      Alcotest.(check string)
        "entry bytes"
        (golden_entry_bytes outcome_bytes)
        (Store.Json.to_string (Store.Entry.to_json e)))
    entry_golden

(* The other direction: the pinned bytes, as a store written by an
   earlier build holds them, decode to the entry that wrote them. *)
let test_entry_json_golden_decode () =
  List.iter
    (fun (outcome, outcome_bytes) ->
      let bytes = golden_entry_bytes outcome_bytes in
      match Result.bind (Store.Json.parse bytes) Store.Entry.of_json with
      | Ok e ->
        Alcotest.check entry_eq outcome_bytes
          (sample_entry ~outcome ~budget:golden_budget ())
          e
      | Error msg -> Alcotest.failf "%s: %s" outcome_bytes msg)
    entry_golden

let budget ?states ?time_s ?mem ?(limit = 1000) () =
  { Store.Entry.bg_limit = limit;
    bg_states = states;
    bg_time_s = time_s;
    bg_mem_bytes = mem }

let test_budget_dominance () =
  let dominates c r = Store.Entry.budget_dominates ~cached:c ~requested:r in
  Alcotest.(check bool) "equal budgets dominate" true
    (dominates (budget ()) (budget ()));
  Alcotest.(check bool) "bigger state limit dominates" true
    (dominates (budget ~limit:2000 ()) (budget ~limit:1000 ()));
  Alcotest.(check bool) "smaller state limit does not" false
    (dominates (budget ~limit:500 ()) (budget ~limit:1000 ()));
  Alcotest.(check bool) "None dominates Some" true
    (dominates (budget ()) (budget ~states:10 ()));
  Alcotest.(check bool) "Some never dominates None" false
    (dominates (budget ~states:1_000_000 ()) (budget ()));
  Alcotest.(check bool) "componentwise: time" true
    (dominates (budget ~time_s:2.0 ()) (budget ~time_s:1.0 ()));
  Alcotest.(check bool) "componentwise: time fails" false
    (dominates (budget ~time_s:1.0 ()) (budget ~time_s:2.0 ()));
  Alcotest.(check bool) "componentwise: memory" false
    (dominates (budget ~mem:100 ()) (budget ~mem:200 ()))

let test_reusable () =
  let small = budget ~states:100 () and big = budget ~states:1_000_000 () in
  let reusable ?budget:(b = small) outcome ~requested =
    Store.Entry.reusable (sample_entry ~outcome ~budget:b ()) ~requested
  in
  (* definitive results answer any budget, even a bigger one *)
  Alcotest.(check bool) "Holds reusable under a bigger budget" true
    (reusable Mc.Query.Holds ~requested:big);
  Alcotest.(check bool) "Sup reusable under a bigger budget" true
    (reusable (Mc.Query.Sup (Mc.Explorer.Sup (5, false))) ~requested:big);
  let unk = Mc.Query.Unknown (Mc.Runctl.State_budget 100, None) in
  (* Unknown only travels downward in budget *)
  Alcotest.(check bool) "Unknown not reusable under a bigger budget" false
    (reusable unk ~requested:big);
  Alcotest.(check bool) "Unknown reusable under a smaller budget" true
    (reusable ~budget:big unk ~requested:small);
  Alcotest.(check bool) "cancelled never reusable" false
    (Store.Entry.reusable
       (sample_entry
          ~outcome:(Mc.Query.Unknown (Mc.Runctl.Cancelled, None))
          ~budget:big ())
       ~requested:small)

(* --- disk ----------------------------------------------------------------- *)

let open_store dir =
  match Store.Disk.open_ dir with
  | Ok s -> s
  | Error msg -> Alcotest.failf "open_: %s" msg

let test_disk_roundtrip () =
  with_store_dir (fun dir ->
      let store = open_store dir in
      let e = sample_entry ~key:(Store.D128.of_string "k1") () in
      (match Store.Disk.lookup store e.Store.Entry.en_key with
       | Store.Disk.Miss -> ()
       | _ -> Alcotest.fail "expected a miss before insert");
      Store.Disk.insert store e;
      (match Store.Disk.lookup store e.Store.Entry.en_key with
       | Store.Disk.Hit e' -> Alcotest.check entry_eq "hit after insert" e e'
       | _ -> Alcotest.fail "expected a hit after insert");
      (* reopening sees the same durable entry *)
      let store2 = open_store dir in
      (match Store.Disk.lookup store2 e.Store.Entry.en_key with
       | Store.Disk.Hit e' -> Alcotest.check entry_eq "durable" e e'
       | _ -> Alcotest.fail "entry lost across reopen");
      (* overwrite with a different outcome *)
      let e2 = { e with Store.Entry.en_outcome = Mc.Query.Fails None } in
      Store.Disk.insert store e2;
      (match Store.Disk.lookup store e.Store.Entry.en_key with
       | Store.Disk.Hit e' -> Alcotest.check entry_eq "overwritten" e2 e'
       | _ -> Alcotest.fail "overwrite lost the entry");
      Store.Disk.remove store e.Store.Entry.en_key;
      match Store.Disk.lookup store e.Store.Entry.en_key with
      | Store.Disk.Miss -> ()
      | _ -> Alcotest.fail "remove did not remove")

let test_disk_recognition () =
  with_store_dir (fun dir ->
      (match Store.Disk.open_existing dir with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "open_existing created a store");
      Unix.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir "innocent.txt") in
      output_string oc "do not gc me";
      close_out oc;
      (* a non-empty directory without the marker is not a store, even
         with create *)
      (match Store.Disk.open_ dir with
       | Error msg ->
         Alcotest.(check bool) "error names the marker" true
           (let rec contains i =
              i + 8 <= String.length msg
              && (String.sub msg i 8 = "PSVSTORE" || contains (i + 1))
            in
            contains 0)
       | Ok _ -> Alcotest.fail "adopted a foreign directory as a store"))

let entry_file dir key = Filename.concat dir (Store.D128.to_hex key ^ ".psve")

let test_disk_corruption () =
  with_store_dir (fun dir ->
      let store = open_store dir in
      let key = Store.D128.of_string "corruptme" in
      let e = sample_entry ~key () in
      Store.Disk.insert store e;
      let path = entry_file dir key in
      let original =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let write bytes =
        let oc = open_out_bin path in
        output_string oc bytes;
        close_out oc
      in
      let check_corrupt label =
        match Store.Disk.lookup store key with
        | Store.Disk.Corrupt _ -> ()
        | Store.Disk.Hit _ -> Alcotest.failf "%s: accepted as a hit" label
        | Store.Disk.Miss -> Alcotest.failf "%s: reported as a miss" label
        | Store.Disk.Unavailable msg ->
          Alcotest.failf "%s: store unavailable: %s" label msg
        | exception exn ->
          Alcotest.failf "%s: raised %s" label (Printexc.to_string exn)
      in
      let n = String.length original in
      (* truncation at every eighth byte *)
      let cut = ref 0 in
      while !cut < n do
        write (String.sub original 0 !cut);
        check_corrupt (Printf.sprintf "truncated to %d bytes" !cut);
        cut := !cut + 8
      done;
      (* single-byte flips across the file *)
      let pos = ref 0 in
      while !pos < n do
        let b = Bytes.of_string original in
        Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x20));
        write (Bytes.to_string b);
        (match Store.Disk.lookup store key with
         | Store.Disk.Corrupt _ | Store.Disk.Miss -> ()
         | Store.Disk.Hit e' ->
           (* a flip that still reads back must have produced the very
              same entry (e.g. flips inside ignored regions don't exist
              in this format, so really: never) *)
           Alcotest.check entry_eq
             (Printf.sprintf "flip at %d produced a phantom entry" !pos)
             e e'
         | Store.Disk.Unavailable msg ->
           Alcotest.failf "flip at %d made the store unavailable: %s" !pos msg
         | exception exn ->
           Alcotest.failf "flip at %d raised %s" !pos (Printexc.to_string exn));
        pos := !pos + 7
      done;
      (* entry-version bump *)
      write (substitute original "PSVSTORE1" "PSVSTORE9");
      check_corrupt "future entry version";
      (* outright garbage *)
      write (String.make 100 '\xff');
      check_corrupt "garbage";
      (* a permuted header (digest line swapped with length line) *)
      write (substitute original "PSVSTORE1\n" "PSVSTORE1\n\n");
      check_corrupt "permuted header";
      (* restore and confirm the store recovers *)
      write original;
      match Store.Disk.lookup store key with
      | Store.Disk.Hit e' -> Alcotest.check entry_eq "recovers" e e'
      | _ -> Alcotest.fail "restored entry does not read back")

let test_disk_fold_stats_gc_fsck () =
  with_store_dir (fun dir ->
      let store = open_store dir in
      let keys =
        List.map
          (fun i -> Store.D128.of_string (Printf.sprintf "key-%d" i))
          [ 1; 2; 3 ]
      in
      List.iter (fun key -> Store.Disk.insert store (sample_entry ~key ())) keys;
      (* one corrupt entry, one stale temp file *)
      let bad = Store.D128.of_string "bad" in
      let oc = open_out_bin (entry_file dir bad) in
      output_string oc "PSVSTORE1\nnot hex\n4\nxxxx";
      close_out oc;
      (* pid 9999999 exceeds any configured pid_max, so the writer is
         provably dead and gc must treat the temp file as an orphan *)
      let oc = open_out_bin (Filename.concat dir ".tmp.9999999.0") in
      output_string oc "leftover";
      close_out oc;
      let warnings = ref 0 in
      let n =
        Store.Disk.fold ~warn:(fun _ -> incr warnings) store ~init:0
          ~f:(fun acc _ -> acc + 1)
      in
      Alcotest.(check int) "fold sees the good entries" 3 n;
      Alcotest.(check int) "fold warned once" 1 !warnings;
      let s = Store.Disk.stats store in
      Alcotest.(check int) "stats entries" 3 s.Store.Disk.st_entries;
      Alcotest.(check int) "stats corrupt" 1 s.Store.Disk.st_corrupt;
      Alcotest.(check bool) "stats bytes > 0" true (s.Store.Disk.st_bytes > 0);
      let r = Store.Disk.fsck store in
      Alcotest.(check int) "fsck ok" 3 r.Store.Disk.fk_ok;
      Alcotest.(check int) "fsck bad" 1 (List.length r.Store.Disk.fk_bad);
      let removed = Store.Disk.gc store in
      Alcotest.(check int) "gc removes corrupt + temp" 2 removed;
      let s = Store.Disk.stats store in
      Alcotest.(check int) "corrupt gone" 0 s.Store.Disk.st_corrupt;
      Alcotest.(check int) "entries kept" 3 s.Store.Disk.st_entries)

let test_disk_concurrent_writers () =
  with_store_dir (fun dir ->
      let store = open_store dir in
      let jobs = 4 and per_domain = 25 in
      (* all domains hammer an overlapping key range: every file must
         come out whole (rename is atomic), nothing may crash *)
      let worker d () =
        let local = open_store dir in
        for i = 0 to per_domain - 1 do
          let key = Store.D128.of_string (Printf.sprintf "key-%d" (i mod 10)) in
          let e =
            { (sample_entry ~key ()) with
              Store.Entry.en_query = Printf.sprintf "writer-%d-%d" d i }
          in
          Store.Disk.insert local e;
          match Store.Disk.lookup local key with
          | Store.Disk.Hit _ -> ()
          | Store.Disk.Miss -> Alcotest.fail "lost an entry mid-write"
          | Store.Disk.Corrupt msg ->
            Alcotest.failf "torn entry observed: %s" msg
          | Store.Disk.Unavailable msg ->
            Alcotest.failf "store unavailable mid-write: %s" msg
        done
      in
      let doms = List.init jobs (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join doms;
      let s = Store.Disk.stats store in
      Alcotest.(check int) "10 distinct keys survive" 10 s.Store.Disk.st_entries;
      Alcotest.(check int) "no corruption" 0 s.Store.Disk.st_corrupt;
      let r = Store.Disk.fsck store in
      Alcotest.(check int) "fsck clean" 0 (List.length r.Store.Disk.fk_bad))

(* --- qcache --------------------------------------------------------------- *)

let test_qcache_hit_miss () =
  with_store_dir (fun dir ->
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) (open_store dir) in
      let net = parse_net model_text in
      let q =
        match Mc.Query.parse "sup: a -> b ceiling 100" with
        | Ok q -> q
        | Error msg -> Alcotest.failf "query: %s" msg
      in
      let r1 = Analysis.Qcache.eval cache net q in
      Alcotest.(check int) "first eval misses" 1 (Analysis.Qcache.misses cache);
      let r2 = Analysis.Qcache.eval cache net q in
      Alcotest.(check int) "second eval hits" 1 (Analysis.Qcache.hits cache);
      Alcotest.(check bool) "same outcome" true
        (r1.Mc.Query.res_outcome = r2.Mc.Query.res_outcome);
      Alcotest.(check bool) "same stats" true
        (r1.Mc.Query.res_stats = r2.Mc.Query.res_stats);
      (* the sup of the little model is the invariant bound, 5 *)
      match r2.Mc.Query.res_outcome with
      | Mc.Query.Sup (Mc.Explorer.Sup (5, _)) -> ()
      | o -> Alcotest.failf "unexpected outcome %a" Mc.Query.pp_outcome o)

(* a model that needs 15 expansions to reach its target, so a tiny
   state budget genuinely interrupts the search *)
let counter_text =
  {|network counter;

int[0,15] n = 0;

process C {
  state S;
  init S;
  trans
    S -> S { when n != 15; assign n := n + 1; };
}
|}

let test_qcache_unknown_dominance () =
  with_store_dir (fun dir ->
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) (open_store dir) in
      let net = parse_net counter_text in
      let q =
        match Mc.Query.parse "E<> n >= 15" with
        | Ok q -> q
        | Error msg -> Alcotest.failf "query: %s" msg
      in
      let tiny_budget =
        { Mc.Runctl.no_budget with Mc.Runctl.b_states = Some 2 }
      in
      let ctl () = Mc.Runctl.create ~budget:tiny_budget () in
      let r1 = Analysis.Qcache.eval cache ~ctl:(ctl ()) net q in
      (match r1.Mc.Query.res_outcome with
       | Mc.Query.Unknown _ -> ()
       | o ->
         Alcotest.failf "expected Unknown under a 2-state budget, got %a"
           Mc.Query.pp_outcome o);
      (* the same tiny budget may reuse the Unknown... *)
      let _ = Analysis.Qcache.eval cache ~ctl:(ctl ()) net q in
      Alcotest.(check int) "dominated request hits" 1
        (Analysis.Qcache.hits cache);
      (* ...but an unbudgeted request must recompute and find the truth *)
      let r3 = Analysis.Qcache.eval cache net q in
      Alcotest.(check bool) "bigger budget recomputes" true
        (Analysis.Qcache.misses cache >= 2);
      (match r3.Mc.Query.res_outcome with
       | Mc.Query.Holds -> ()
       | o -> Alcotest.failf "expected Holds, got %a" Mc.Query.pp_outcome o);
      (* the definitive result overwrote the Unknown: now even the tiny
         budget is answered from the store *)
      let hits_before = Analysis.Qcache.hits cache in
      let r4 = Analysis.Qcache.eval cache ~ctl:(ctl ()) net q in
      Alcotest.(check int) "definitive answers any budget" (hits_before + 1)
        (Analysis.Qcache.hits cache);
      match r4.Mc.Query.res_outcome with
      | Mc.Query.Holds -> ()
      | o -> Alcotest.failf "expected cached Holds, got %a" Mc.Query.pp_outcome o)

(* The key leaves budgets out, so a budget-limited run of a query whose
   answer is already stored publishes an Unknown under the answer's key
   (two requests of one serve batch, one with a "limit", both miss).
   The Unknown must not displace the answer, nor an Unknown of a bigger
   budget; it may replace an Unknown of a smaller one. *)
let test_qcache_unknown_keeps_answer () =
  with_store_dir (fun dir ->
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) (open_store dir) in
      let q =
        match Mc.Query.parse "sup: a -> b ceiling 100" with
        | Ok q -> q
        | Error msg -> Alcotest.failf "query: %s" msg
      in
      let key = Analysis.Qcache.key (parse_net model_text) q in
      let put outcome budget =
        Analysis.Qcache.insert cache
          (Analysis.Qcache.entry ~key ~query:(Mc.Query.to_string q) ~budget
             ~jobs:1 ~wall_ms:1.0
             { Mc.Query.res_outcome = outcome;
               res_stats =
                 { Mc.Explorer.visited = 1; stored = 1; frontier = 0 } })
      in
      let limit n = Analysis.Qcache.entry_budget ~limit:n () in
      let text o = Store.Json.to_string (Store.Entry.outcome_to_json o) in
      let found requested =
        match Analysis.Qcache.find cache ~requested key with
        | None -> "miss"
        | Some e -> text e.Store.Entry.en_outcome
      in
      let sup = Mc.Query.Sup (Mc.Explorer.Sup (5, false)) in
      let unknown n = Mc.Query.Unknown (Mc.Runctl.State_budget n, None) in
      put sup (Analysis.Qcache.entry_budget ());
      put (unknown 500) (limit 500);
      Alcotest.(check string) "an unlimited find still hits the sup" (text sup)
        (found (Analysis.Qcache.entry_budget ()));
      Alcotest.(check string) "and so does the limited one" (text sup)
        (found (limit 500));
      Store.Disk.remove (Analysis.Qcache.disk cache) key;
      put (unknown 500) (limit 500);
      put (unknown 2000) (limit 2000);
      Alcotest.(check string) "a bigger budget's Unknown replaces a smaller one"
        (text (unknown 2000)) (found (limit 2000));
      put (unknown 800) (limit 800);
      Alcotest.(check string) "a smaller budget's Unknown does not"
        (text (unknown 2000)) (found (limit 2000)))

(* --- one entry for every path ------------------------------------------ *)

let cachetest_query () =
  match Mc.Query.parse "sup: a -> b ceiling 100" with
  | Ok q -> q
  | Error msg -> Alcotest.failf "query: %s" msg

let test_qcache_entry_builder () =
  let r =
    { Mc.Query.res_outcome = Mc.Query.Sup (Mc.Explorer.Sup (440, false));
      res_stats = { Mc.Explorer.visited = 10; stored = 8; frontier = 2 } }
  in
  let key = Store.D128.of_string "k" in
  let before = Unix.gettimeofday () in
  let e =
    Analysis.Qcache.entry ~key ~query:"sup: a -> b ceiling 100"
      ~budget:golden_budget ~jobs:3 ~wall_ms:12.5 r
  in
  Alcotest.(check string) "key" (Store.D128.to_hex key)
    (Store.D128.to_hex e.Store.Entry.en_key);
  Alcotest.(check string) "query" "sup: a -> b ceiling 100"
    e.Store.Entry.en_query;
  Alcotest.(check bool) "budget" true (e.Store.Entry.en_budget = golden_budget);
  let pv = e.Store.Entry.en_prov in
  Alcotest.(check bool) "tool" true
    (String.length pv.Store.Entry.pv_tool > 4
     && String.sub pv.Store.Entry.pv_tool 0 4 = "psv/");
  Alcotest.(check int) "jobs" 3 pv.Store.Entry.pv_jobs;
  Alcotest.(check (float 0.)) "wall" 12.5 pv.Store.Entry.pv_wall_ms;
  Alcotest.(check bool) "stamped now" true
    (pv.Store.Entry.pv_created >= before
     && pv.Store.Entry.pv_created <= Unix.gettimeofday ());
  Alcotest.(check bool) "result round-trips" true
    (Analysis.Qcache.result e = r)

(* Kept for benchmark drivers that still call them: both must stay the
   identity now that an entry holds the checker's own types. *)
let test_qcache_identity_shims () =
  List.iter
    (fun (outcome, _) ->
      Alcotest.(check bool)
        (Fmt.str "%a" Mc.Query.pp_outcome outcome)
        true
        (Analysis.Qcache.outcome_to_entry outcome = outcome))
    entry_golden;
  let stats = { Mc.Explorer.visited = 10; stored = 8; frontier = 2 } in
  Alcotest.(check bool) "stats" true
    (Analysis.Qcache.stats_to_entry stats = stats)

let test_qcache_entry_budget () =
  Alcotest.(check bool) "no token: unlimited at the default limit" true
    (Analysis.Qcache.entry_budget ()
     = { Store.Entry.unlimited with
         Store.Entry.bg_limit = Mc.Explorer.default_limit });
  let ctl =
    Mc.Runctl.create
      ~budget:
        { Mc.Runctl.b_time_s = Some 2.0;
          b_states = Some 5000;
          b_mem_bytes = Some 4096 }
      ()
  in
  Alcotest.(check bool) "token components and explicit limit" true
    (Analysis.Qcache.entry_budget ~limit:700 ~ctl ()
     = { Store.Entry.bg_limit = 700;
         bg_states = Some 5000;
         bg_time_s = Some 2.0;
         bg_mem_bytes = Some 4096 })

let serve_request = {|{"id":1,"model":"m.xta","query":"sup: a -> b ceiling 100"}|}

let test_qcache_reads_serve_entry () =
  with_store_dir (fun dir ->
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) (open_store dir) in
      let net = parse_net model_text in
      let cfg = Analysis.Serve.default_config in
      let served =
        match
          Analysis.Serve.evaluate cfg ~cache
            (Analysis.Serve.prepare cfg ~cache
               ~load_model:(fun _ -> Ok net)
               serve_request)
        with
        | `Ok (_, r) -> r
        | _ -> Alcotest.fail "serve did not evaluate the request"
      in
      let hits = Analysis.Qcache.hits cache in
      let r = Analysis.Qcache.eval cache net (cachetest_query ()) in
      Alcotest.(check int) "check hits the served entry" (hits + 1)
        (Analysis.Qcache.hits cache);
      Alcotest.(check bool) "same result" true (r = served))

let test_serve_reads_qcache_entry () =
  with_store_dir (fun dir ->
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) (open_store dir) in
      let net = parse_net model_text in
      let r = Analysis.Qcache.eval cache net (cachetest_query ()) in
      let cfg = Analysis.Serve.default_config in
      match
        Analysis.Serve.prepare cfg ~cache ~load_model:(fun _ -> Ok net)
          serve_request
      with
      | `Hit (_, e) ->
        Alcotest.(check bool) "same result" true (Analysis.Qcache.result e = r)
      | _ -> Alcotest.fail "serve missed the entry written by check")

let test_qcache_reads_session_entry () =
  with_store_dir (fun dir ->
      let cache = Analysis.Qcache.make ~warn:(fun _ -> ()) (open_store dir) in
      let net = parse_net model_text in
      let q = cachetest_query () in
      let session = Incr.Session.make ~cache ~tag:"cachetest" () in
      let so = Incr.Session.run session net q in
      Alcotest.(check string) "session computed" "full"
        (Incr.Session.rung_name so.Incr.Session.so_rung);
      let hits = Analysis.Qcache.hits cache in
      let r = Analysis.Qcache.eval cache net q in
      Alcotest.(check int) "check hits the session's entry" (hits + 1)
        (Analysis.Qcache.hits cache);
      Alcotest.(check bool) "same result" true (r = so.Incr.Session.so_result))

(* --- snapshots reject the previous format -------------------------------- *)

let test_old_snapshot_version () =
  let path = Filename.temp_file "psv_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "PSVSNAP1";
      output_string oc (String.make 64 '\x00');
      close_out oc;
      match Mc.Explorer.load_snapshot path with
      | Ok _ -> Alcotest.fail "loaded a PSVSNAP1 snapshot"
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the stale version: %s" msg)
          true
          (let rec contains i =
             i + 8 <= String.length msg
             && (String.sub msg i 8 = "PSVSNAP1" || contains (i + 1))
           in
           contains 0))

(* Snapshot files carry a fingerprint of the explorer's configuration;
   an empty snapshot's payload (the marshalled record inside the frame)
   is that fingerprint plus fixed fields, so pinning it pins the
   fingerprint.  The vectors equal the digests of PSVSNAP2 files after
   their 8-byte magic: the framing changed, the record did not. *)
let test_snapshot_fingerprint_golden () =
  let params = Gpca.Params.default in
  let psm =
    (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net
  in
  let monitor =
    Mc.Monitor.delay ~trigger:Gpca.Model.bolus_req
      ~response:Gpca.Model.start_infusion ~clock:Mc.Query.delay_monitor_clock
      ~ceiling:2000 ()
  in
  let digest t =
    let snap =
      Mc.Explorer.make_snapshot t ~label:"sup" ~subsume:true ~next_id:0
        ~visited:0 ~stored:0 ~entries:[] ~queue:[||] ~trace:[||] ~payload:""
    in
    let path = Filename.temp_file "psv_test" ".snap" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Mc.Explorer.save_snapshot path snap;
        match
          Keys.Frame.unframe ~magic:"PSVSNAP3"
            (In_channel.with_open_bin path In_channel.input_all)
        with
        | Ok payload -> Store.D128.to_hex (Store.D128.of_string payload)
        | Error _ -> Alcotest.fail "snapshot is not a PSVSNAP3 frame")
  in
  List.iter
    (fun (label, t, want) ->
      Alcotest.(check string) label want (digest t))
    [ ( "psm, delay monitor",
        Mc.Explorer.make ~monitor psm,
        "6c7b95cebc2a0416a7fcb01226ec5f0a" );
      ( "psm, delay monitor, tight",
        Mc.Explorer.make ~monitor ~tight:true psm,
        "41ec1544e8f1ec0fd9d7918efd50de8f" );
      ( "psm, no reduction",
        Mc.Explorer.make ~reduce:false psm,
        "62b290852bdc42d809a80dcc9986991e" ) ]

(* A non-empty checkpoint pinned byte for byte: the payload of a
   500-state cut of the railroad-periodic25 delay query.  [Marshal]
   writes a shared array once and refers back to it, so the digest also
   pins which successors share their parent's variable vector and which
   get a fresh one; a search that reuses per-state data must keep that
   sharing, or every checkpoint's bytes move. *)
let test_checkpoint_golden () =
  let ctl =
    Mc.Runctl.create
      ~budget:{ Mc.Runctl.no_budget with Mc.Runctl.b_states = Some 500 }
      ()
  in
  let cut = Test_runctl.railroad_delay ~ctl () in
  let snap =
    match cut.Mc.Explorer.so_snapshot with
    | Some s -> s
    | None -> Alcotest.fail "the 500-state cut carries no snapshot"
  in
  let path = Filename.temp_file "psv_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Mc.Explorer.save_snapshot path snap;
      match
        Keys.Frame.unframe ~magic:"PSVSNAP3"
          (In_channel.with_open_bin path In_channel.input_all)
      with
      | Ok payload ->
        Alcotest.(check string) "payload digest"
          "0febdb94ba3aa225433fdd27baf9ac23"
          (Store.D128.to_hex (Store.D128.of_string payload))
      | Error _ -> Alcotest.fail "snapshot is not a PSVSNAP3 frame")

let suite =
  [ Alcotest.test_case "d128 hex round-trip" `Quick test_d128_hex;
    Alcotest.test_case "d128 sensitivity" `Quick test_d128_sensitivity;
    Alcotest.test_case "d128 golden vectors" `Quick test_d128_golden;
    QCheck_alcotest.to_alcotest prop_d128_matches_reference;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "query to_string round-trip" `Quick
      test_query_to_string_roundtrip;
    Alcotest.test_case "key stable across print/parse" `Quick
      test_key_stability;
    Alcotest.test_case "key changes under perturbation" `Quick
      test_key_perturbation;
    Alcotest.test_case "golden keys and manifests" `Quick test_golden_keys;
    Alcotest.test_case "entry json round-trip" `Quick test_entry_json_roundtrip;
    Alcotest.test_case "entry json golden bytes" `Quick test_entry_json_golden;
    Alcotest.test_case "entry json golden decode" `Quick
      test_entry_json_golden_decode;
    Alcotest.test_case "budget dominance" `Quick test_budget_dominance;
    Alcotest.test_case "reuse rule" `Quick test_reusable;
    Alcotest.test_case "disk insert/lookup/remove" `Quick test_disk_roundtrip;
    Alcotest.test_case "store recognition" `Quick test_disk_recognition;
    Alcotest.test_case "corruption never crashes" `Quick test_disk_corruption;
    Alcotest.test_case "fold/stats/gc/fsck" `Quick test_disk_fold_stats_gc_fsck;
    Alcotest.test_case "concurrent writers" `Quick test_disk_concurrent_writers;
    Alcotest.test_case "qcache hit/miss" `Quick test_qcache_hit_miss;
    Alcotest.test_case "qcache unknown dominance" `Quick
      test_qcache_unknown_dominance;
    Alcotest.test_case "qcache unknown keeps a stored answer" `Quick
      test_qcache_unknown_keeps_answer;
    Alcotest.test_case "qcache entry builder" `Quick test_qcache_entry_builder;
    Alcotest.test_case "qcache identity shims" `Quick
      test_qcache_identity_shims;
    Alcotest.test_case "qcache entry budget" `Quick test_qcache_entry_budget;
    Alcotest.test_case "check reads a serve entry" `Quick
      test_qcache_reads_serve_entry;
    Alcotest.test_case "serve reads a check entry" `Quick
      test_serve_reads_qcache_entry;
    Alcotest.test_case "check reads a session entry" `Quick
      test_qcache_reads_session_entry;
    Alcotest.test_case "snapshot fingerprint golden bytes" `Quick
      test_snapshot_fingerprint_golden;
    Alcotest.test_case "checkpoint golden bytes" `Quick test_checkpoint_golden;
    Alcotest.test_case "old snapshot version rejected" `Quick
      test_old_snapshot_version ]
