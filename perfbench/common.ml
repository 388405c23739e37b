(* Shared pieces of the benchmark: the clock, order statistics, the
   measurement window, scratch directories, the Table-I query suite and
   the result record every workload returns. *)

(* --- clock ------------------------------------------------------------- *)

(* CLOCK_MONOTONIC in nanoseconds: hot calls (one DBM firing is a few
   microseconds) need better than gettimeofday's microsecond grain. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let ms_since t0 = ms_of_ns (now_ns () - t0)

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* --- order statistics -------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  match Array.length a with
  | 0 -> nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(xs, n=4)]
   (default "exclusive" method), so quartiles printed here match the
   ones an external checker computes from the same values. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v, v)
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sum l = List.fold_left ( +. ) 0. l

(* --- memory ------------------------------------------------------------ *)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- scratch directories ----------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh sub-directory of the run's scratch directory. *)
let fresh_dir =
  let n = ref 0 in
  fun root name ->
    incr n;
    let d = Filename.concat root (Printf.sprintf "%s-%d" name !n) in
    rm_rf d;
    mkdir_p d;
    d

let open_cache dir =
  match Store.Disk.open_ dir with
  | Ok disk -> Analysis.Qcache.make ~warn:prerr_endline disk
  | Error msg -> failwith ("store " ^ dir ^ ": " ^ msg)

(* --- answers ----------------------------------------------------------- *)

(* The wire rendering of an outcome: two answers agree when these
   strings are equal (the store and serve paths print the same way). *)
let outcome_text (o : Mc.Query.outcome) =
  Store.Json.to_string
    (Store.Entry.outcome_to_json (Analysis.Qcache.outcome_to_entry o))

let result_text (r : Mc.Query.result) =
  Printf.sprintf "%s visited=%d stored=%d"
    (outcome_text r.Mc.Query.res_outcome)
    r.Mc.Query.res_stats.Mc.Explorer.visited
    r.Mc.Query.res_stats.Mc.Explorer.stored

(* --- the Table-I suite ------------------------------------------------- *)

let params = Gpca.Params.default

(* A named query on a built network: the unit every workload feeds to
   the per-layer probes. *)
type probe = {
  p_name : string;
  p_net : Ta.Model.network;
  p_query : Mc.Query.t;
}

let sup_query ~trigger ~response ~ceiling =
  Mc.Query.Sup_delay { trigger; response; ceiling }

let gpca_psm () =
  (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only params).Transform.psm_net

let gpca_ceiling () =
  2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc

(* The railroad gate controller of examples/railroad.ml, rebuilt here
   because examples are executables, not a library. *)
let railroad_net ~headway =
  let open Ta in
  let loc = Model.location and edge = Model.edge in
  let controller =
    Model.automaton ~name:"GateCtrl" ~initial:"Open"
      [ loc "Open"; loc ~inv:[ Clockcons.le "g" 5 ] "Lowering"; loc "Closed" ]
      [ edge ~sync:(Model.Recv "m_Train") ~resets:[ "g" ] "Open" "Lowering";
        edge ~sync:(Model.Send "c_GateDown") "Lowering" "Closed";
        edge ~sync:(Model.Recv "m_Clear") "Closed" "Open" ]
  in
  let track =
    Model.automaton ~name:"Track" ~initial:"Away"
      [ loc "Away";
        loc "Approaching";
        loc ~inv:[ Clockcons.le "t" 1_500 ] "Passing" ]
      [ edge
          ~guard:(if headway = 0 then [] else [ Clockcons.ge "t" headway ])
          ~sync:(Model.Send "m_Train") ~resets:[ "t" ] "Away" "Approaching";
        edge ~sync:(Model.Recv "c_GateDown") ~resets:[ "t" ] "Approaching"
          "Passing";
        edge
          ~guard:[ Clockcons.ge "t" 1_000 ]
          ~sync:(Model.Send "m_Clear") ~resets:[ "t" ] "Passing" "Away" ]
  in
  Model.network ~name:"railroad" ~clocks:[ "g"; "t" ] ~vars:[]
    ~channels:
      [ ("m_Train", Model.Broadcast);
        ("m_Clear", Model.Broadcast);
        ("c_GateDown", Model.Broadcast) ]
    [ controller; track ]

let railroad_psm ~headway ~invocation =
  let pim =
    Transform.Pim.make (railroad_net ~headway) ~software:"GateCtrl"
      ~environment:"Track"
  in
  let scheme =
    { Scheme.is_name = "ecu";
      is_inputs =
        [ ("m_Train", Scheme.interrupt_input (Scheme.delay 1 4));
          ("m_Clear", Scheme.interrupt_input (Scheme.delay 1 4)) ];
      is_outputs = [ ("c_GateDown", Scheme.pulse_output (Scheme.delay 5 20)) ];
      is_input_comm = Scheme.Buffer (2, Scheme.Read_all);
      is_output_comm = Scheme.Buffer (2, Scheme.Read_all);
      is_invocation = invocation;
      is_exec = { Scheme.wcet_min = 1; wcet_max = 8 } }
  in
  (Transform.psm_of_pim pim scheme).Transform.psm_net

(* The seven sup queries of the explorer suite: the GPCA PIM, the three
   Table-I PSM bounds, and three railroad PSMs (event-driven, periodic,
   and a racing environment whose delay is unbounded). *)
let table1_suite () =
  let gpca = gpca_psm () and ceiling = gpca_ceiling () in
  let bolus = Gpca.Model.bolus_req and start = Gpca.Model.start_infusion in
  let railroad name ~headway ~invocation =
    { p_name = name;
      p_net = railroad_psm ~headway ~invocation;
      p_query =
        sup_query ~trigger:"m_Train" ~response:"c_GateDown" ~ceiling:320 }
  in
  [ { p_name = "gpca-pim-mc";
      p_net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only params;
      p_query = sup_query ~trigger:bolus ~response:start ~ceiling:1000 };
    { p_name = "gpca-psm-input";
      p_net = gpca;
      p_query =
        sup_query ~trigger:bolus
          ~response:(Transform.Names.input_chan bolus) ~ceiling };
    { p_name = "gpca-psm-output";
      p_net = gpca;
      p_query =
        sup_query ~trigger:(Transform.Names.output_chan start) ~response:start
          ~ceiling };
    { p_name = "gpca-psm-mc";
      p_net = gpca;
      p_query = sup_query ~trigger:bolus ~response:start ~ceiling };
    railroad "railroad-psm-event" ~headway:300
      ~invocation:(Scheme.Aperiodic 0);
    railroad "railroad-psm-periodic25" ~headway:300
      ~invocation:(Scheme.Periodic 25);
    railroad "railroad-psm-race" ~headway:0 ~invocation:(Scheme.Aperiodic 0) ]

(* --- run configuration and results ------------------------------------- *)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  scratch : string;  (* this run's scratch directory *)
}

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  report : (string * Store.Json.t) list;
      (* workload-specific numbers for --json and the stderr summary *)
}

(* Every failed check is counted and named on stderr. *)
type tally = { mutable attempted_ : int; mutable failed_ : int }

let tally () = { attempted_ = 0; failed_ = 0 }

let check tally ok fmt =
  Printf.ksprintf
    (fun msg ->
      tally.attempted_ <- tally.attempted_ + 1;
      if not ok then begin
        tally.failed_ <- tally.failed_ + 1;
        prerr_endline ("perfbench: FAILED " ^ msg)
      end)
    fmt

(* --- host speed ---------------------------------------------------------- *)

(* The benchmark runs on shared hosts whose speed drifts by tens of
   percent over seconds as other tenants contend for caches and memory.
   A fixed gauge -- code that does not depend on this repository: a
   DBM-style shortest-path closure over small int matrices kept in a
   structural hash table, and a burst of short-lived list cells -- is
   timed between ops, and each op's time is scaled by [gauge_nominal_ms]
   over the mean of the gauge times before and after it.  (Of the
   kernels tried, these two tracked the explorer's slowdowns most
   closely; pure arithmetic did not track them at all.)  Times are
   therefore reported in ms at the reference speed at which the gauge
   takes 10 ms: a change to the program moves them, a slower host much
   less.  Raw times go to the workload report. *)
let gauge_nominal_ms = 10.

let gauge_kernel () =
  let x = ref 7 in
  let n = 9 in
  let zones = Hashtbl.create 4096 in
  for _ = 1 to 750 do
    let m =
      Array.init (n * n) (fun _ ->
          x := ((!x * 1103515245) + 12345) land 0x3fffffff;
          (!x land 1023) + 1)
    in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let v = m.((i * n) + k) + m.((k * n) + j) in
          if v < m.((i * n) + j) then m.((i * n) + j) <- v
        done
      done
    done;
    let key = Array.sub m 0 3 in
    let l = Option.value ~default:[] (Hashtbl.find_opt zones key) in
    Hashtbl.replace zones key (m :: (if List.length l > 8 then [] else l))
  done;
  let cells = ref [] in
  for i = 1 to 50_000 do
    cells := (i, i) :: !cells
  done;
  ignore (Sys.opaque_identity (List.rev !cells))

let gauge () = snd (time_ms gauge_kernel)

let scale ~before ~after = gauge_nominal_ms /. ((before +. after) /. 2.)

(* --- measurement ------------------------------------------------------- *)

(* Runs [op 0], [op 1], ... until [seconds] of wall time have passed,
   finishing the current round of [round] ops so every run measures the
   same mix.  [op] returns its own latency in ms.  Ops are grouped in
   batches of at least a tenth of a second, each bracketed by gauge
   readings; returns the scaled latencies and the raw ones. *)
let window ?(round = 1) ~seconds op =
  let t0 = now_ns () in
  let scaled = ref [] and raw = ref [] in
  let before = ref (gauge ()) in
  let flush batch =
    let after = gauge () in
    let s = scale ~before:!before ~after in
    scaled := List.rev_append (List.map (fun ms -> ms *. s) batch) !scaled;
    raw := List.rev_append batch !raw;
    before := after
  in
  let rec go i batch b0 =
    if i mod round = 0 && i > 0 && ms_since t0 >= 1000. *. seconds then begin
      if batch <> [] then flush batch;
      (List.rev !scaled, List.rev !raw)
    end
    else
      let batch = op i :: batch in
      if ms_since b0 >= 100. then begin
        flush (List.rev batch);
        go (i + 1) [] (now_ns ())
      end
      else go (i + 1) batch b0
  in
  go 0 [] (now_ns ())

(* Timed repetitions of a set-up, in rounds of three for half a second
   or more, so a set-up of microseconds still gets a steady median.
   Keeps the last one's product, disposing of each earlier one before
   the next starts (untimed).  Returns the product and the median
   scaled set-up time. *)
let repeated_setup ~dispose setup =
  let last = ref None in
  let times, _ =
    window ~round:3 ~seconds:0.5 (fun _ ->
        Option.iter dispose !last;
        let v, ms = time_ms setup in
        last := Some v;
        ms)
  in
  (Option.get !last, median times)

(* The end-to-end metrics, identical in name and unit on every
   workload; what an "op" is differs per workload (see README.md). *)
let end_to_end ~setup_ms ~op_ms ~ops_per_s =
  [ metric "setup_s" "s" (setup_ms /. 1000.);
    metric "op_p50_ms" "ms" (median op_ms);
    metric "ops_per_s" "1/s" ops_per_s ]

(* Sums of consecutive groups of [n] (a trailing partial group dropped):
   per-query times into pass times, per-instance into round times. *)
let chunk_sums n l =
  let rec go acc part k = function
    | [] -> List.rev acc
    | x :: rest ->
      if k + 1 = n then go ((part +. x) :: acc) 0. 0 rest
      else go acc (part +. x) (k + 1) rest
  in
  go [] 0. 0 l

(* Throughput of a sequential workload: ops over the time spent in them. *)
let sequential_rate op_ms = float_of_int (List.length op_ms) /. (sum op_ms /. 1000.)

let raw_report raw = ("op_p50_ms_raw", Store.Json.Float (median raw))

(* The peak heap is a per-layer number: with worker domains its
   run-to-run spread is too wide for an end-to-end bound. *)
let heap_report () = ("peak_heap_mb", Store.Json.Float (peak_heap_mb ()))
