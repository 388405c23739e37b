(* The differential oracle — see oracle.mli for the check matrix. *)

type mutation = Sup_skew of int

type config = {
  jobs : int;
  scenarios : int;
  sim_faults : Sim.Engine.faults option;
  cache : Analysis.Qcache.t option;
  mutation : mutation option;
}

let default =
  { jobs = 2;
    scenarios = 3;
    sim_faults = None;
    cache = None;
    mutation = None }

type check =
  | Truth
  | Analytic
  | Bounded
  | Xta
  | Store_trip
  | Ladder
  | Sim

let check_name = function
  | Truth -> "truth"
  | Analytic -> "analytic"
  | Bounded -> "bounded"
  | Xta -> "xta"
  | Store_trip -> "store"
  | Ladder -> "ladder"
  | Sim -> "sim"

let check_of_name = function
  | "truth" -> Some Truth
  | "analytic" -> Some Analytic
  | "bounded" -> Some Bounded
  | "xta" -> Some Xta
  | "store" -> Some Store_trip
  | "ladder" -> Some Ladder
  | "sim" -> Some Sim
  | _ -> None

type discrepancy = {
  d_check : check;
  d_detail : string;
}

type verdict = {
  v_id : string;
  v_shape : Gen.shape;
  v_sup : int option;
  v_sim_max : float option;
  v_discrepancies : discrepancy list;
  v_wall_ms : float;
}

let outcome_str o = Fmt.str "%a" Mc.Query.pp_outcome o

let sup_of = function
  | Mc.Query.Sup (Mc.Explorer.Sup (v, _)) -> Some v
  | _ -> None

let mutate mutation o =
  match (mutation, o) with
  | Some (Sup_skew k), Mc.Query.Sup (Mc.Explorer.Sup (v, s)) ->
    Mc.Query.Sup (Mc.Explorer.Sup (v + k, s))
  | _, o -> o

let eval1 cfg net q =
  let route =
    Option.fold ~none:Incr.Answer.Plain ~some:(fun c -> Incr.Answer.Cached c)
      cfg.cache
  in
  (Incr.Answer.run route net q).Incr.Answer.an_result

(* ----------------------------------------------------- the batch -- *)

(* A batch item's result cell: filled once by the item, on whichever
   domain ran it, and read on the caller after [Pool.map] returns (its
   fork-join orders the write before the read).  An item never raises
   out of the pool: its exception waits in the cell and is re-raised by
   [get] exactly where the sequential oracle would have raised it. *)
type 'a cell = ('a, exn * Printexc.raw_backtrace) result option ref

let cell () : 'a cell = ref None

let fill (c : 'a cell) f =
  c := Some (match f () with
             | v -> Ok v
             | exception exn -> Error (exn, Printexc.get_raw_backtrace ()))

let get (c : 'a cell) =
  match !c with
  | Some (Ok v) -> v
  | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
  | None -> invalid_arg "Oracle: batch item did not run"

type xta_trip =
  | No_reparse of string
  | Invalid of string list
  | Reverified of Mc.Query.result

(* ------------------------- construction-independent answerer pairs -- *)

(* [core] with [extra] batch items (longest first) riding along.  The
   comparisons happen after the batch, in the sequential oracle's order,
   so discrepancies and the exception that escapes are those of a
   one-domain run. *)
let core_with cfg ~net ~q ~seed extra =
  let discs = ref [] in
  let add d_check fmt =
    Fmt.kstr (fun d_detail -> discs := { d_check; d_detail } :: !discs) fmt
  in
  let cold = cell () and warm = cell () and trip = cell () in
  let edit = cell () and sess = cell () and scratch = cell () in
  let cached () =
    fill cold (fun () -> eval1 cfg net q);
    (* the warm re-read answers from the entry the cold run wrote *)
    match !cold with
    | Some (Ok _) ->
      fill warm (fun () -> Option.map (fun _ -> eval1 cfg net q) cfg.cache)
    | _ -> ()
  in
  let xta () =
    fill trip (fun () ->
        match Xta.Parse.network (Xta.Print.to_string net) with
        | Error msg -> No_reparse msg
        | Ok net' -> (
          match Ta.Model.validate net' with
          | _ :: _ as ps -> Invalid ps
          | [] -> Reverified (Mc.Query.eval net' q)))
  in
  (* made now, for the ladder items; a failure surfaces at the ladder
     check, as an item's does *)
  fill edit (fun () ->
      let rng = Random.State.make [| 0xde17a; seed |] in
      match Incr.Edit.random_edit rng net with
      | exception Invalid_argument _ -> None
      | edit -> Some edit);
  let sessions, scratch_run =
    match !edit with
    | Some (Ok (Some ed)) ->
      ( [ (fun () ->
            fill sess (fun () ->
                let s = Incr.Session.make ~tag:"fuzz" () in
                ignore (Incr.Session.run s net q);
                (Incr.Session.run s ed.Incr.Edit.ed_net q)
                  .Incr.Session.so_result)) ],
        [ (fun () ->
            fill scratch (fun () -> Mc.Query.eval ed.Incr.Edit.ed_net q)) ] )
    | _ -> ([], [])
  in
  (* longest first, as timed over a seeded corpus, on at most the
     host's cores; each item is searches writing only its own cells *)
  ignore
    (Analysis.Pool.map ~jobs:cfg.jobs
       (fun item -> item ())
       (sessions @ [ xta; cached ] @ scratch_run @ extra)
      : unit list);
  let r1 = get cold in
  let o1 = mutate cfg.mutation r1.Mc.Query.res_outcome in
  (* textual round-trip: print, reparse, re-verify; compared with the
     primary outcome as reported, so an injected skew shows here *)
  (match get trip with
  | No_reparse msg -> add Xta "printed network does not reparse: %s" msg
  | Invalid ps -> add Xta "reparsed network invalid: %s" (String.concat "; " ps)
  | Reverified rx ->
    if rx.Mc.Query.res_outcome <> o1 then
      add Xta "round-trip changes outcome: %s -> %s" (outcome_str o1)
        (outcome_str rx.Mc.Query.res_outcome));
  (* store round-trip: the warm answer must equal the cold one *)
  (match get warm with
  | None -> ()
  | Some r1' ->
    if r1'.Mc.Query.res_outcome <> r1.Mc.Query.res_outcome then
      add Store_trip "stored entry answers %s, computed %s"
        (outcome_str r1'.Mc.Query.res_outcome)
        (outcome_str r1.Mc.Query.res_outcome));
  (* incremental ladder on a seeded edit vs a from-scratch run *)
  (match get edit with
  | None -> ()
  | Some ed ->
    let incr_o = get sess in
    let scratch = get scratch in
    if incr_o.Mc.Query.res_outcome <> scratch.Mc.Query.res_outcome then
      add Ladder "after %S ladder says %s, scratch says %s"
        ed.Incr.Edit.ed_desc
        (outcome_str incr_o.Mc.Query.res_outcome)
        (outcome_str scratch.Mc.Query.res_outcome));
  (r1, o1, List.rev !discs)

let core cfg ~net ~q ~seed = core_with cfg ~net ~q ~seed []

(* ------------------------------------------- simulator cross-check -- *)

let typical_of_scheme scheme ~trigger ~response =
  let ind = Scheme.input_spec scheme trigger in
  let outd = Scheme.output_spec scheme response in
  { Sim.Engine.typ_input_proc =
      (fun _ ->
        ( float_of_int ind.Scheme.in_delay.Scheme.delay_min,
          float_of_int ind.Scheme.in_delay.Scheme.delay_max ));
    typ_output_proc =
      (fun _ ->
        ( float_of_int outd.Scheme.out_delay.Scheme.delay_min,
          float_of_int outd.Scheme.out_delay.Scheme.delay_max ));
    typ_exec =
      ( float_of_int scheme.Scheme.is_exec.Scheme.wcet_min,
        float_of_int scheme.Scheme.is_exec.Scheme.wcet_max ) }

let sim_check cfg (inst : Gen.instance) (si : Gen.sim_info) ~sup add =
  let scheme = si.Gen.si_scheme in
  let typical =
    typical_of_scheme scheme ~trigger:inst.Gen.trigger
      ~response:inst.Gen.response
  in
  let phase_span =
    3.0 *. float_of_int (Option.value ~default:10 (Scheme.period_opt scheme))
  in
  let st =
    Random.State.make [| 0x51a4; inst.Gen.seed; inst.Gen.index |]
  in
  let largest = ref None in
  for scenario = 0 to cfg.scenarios - 1 do
    let t = Random.State.float st phase_span in
    let sim_cfg =
      { Sim.Engine.cfg_pim = si.Gen.si_pim;
        cfg_scheme = scheme;
        cfg_typical = typical;
        cfg_stimuli = [ (t, inst.Gen.trigger) ];
        cfg_horizon = t +. (4.0 *. float_of_int (Gen.ub inst)) +. 100.0 }
    in
    let log =
      Sim.Engine.run
        ~seed:((1000 * inst.Gen.index) + scenario)
        ?faults:cfg.sim_faults sim_cfg
    in
    List.iter
      (fun s ->
        match Sim.Measure.mc_delay s with
        | None -> ()
        | Some d ->
          largest := Some (Option.fold ~none:d ~some:(Float.max d) !largest);
          if d < float_of_int inst.Gen.floor -. 1e-9 then
            add Sim
              (Printf.sprintf "scenario %d measured %.3f below the floor %d"
                 scenario d inst.Gen.floor);
          (match (cfg.sim_faults, sup) with
          | None, Some v when d > float_of_int v +. 1e-9 ->
            add Sim
              (Printf.sprintf
                 "scenario %d measured %.3f above the verified sup %d"
                 scenario d v)
          | _ -> ()))
      (Sim.Measure.samples log ~trigger:inst.Gen.trigger
         ~response:inst.Gen.response)
  done;
  !largest

(* ------------------------------------------------------ the oracle -- *)

let run cfg (inst : Gen.instance) =
  let t0 = Unix.gettimeofday () in
  let q = Gen.query inst in
  let bounded bound =
    Mc.Query.Bounded_response
      { trigger = inst.Gen.trigger; response = inst.Gen.response; bound }
  in
  let above = cell () and below = cell () in
  let r1, o1, core_discs =
    core_with cfg ~net:inst.Gen.net ~q ~seed:(inst.Gen.seed + inst.Gen.index)
      [ (fun () ->
          fill above (fun () ->
              Mc.Query.eval inst.Gen.net (bounded (Gen.ub inst))));
        (fun () ->
          fill below (fun () ->
              Mc.Query.eval inst.Gen.net (bounded (inst.Gen.floor - 1)))) ]
  in
  let discs = ref (List.rev core_discs) in
  let add d_check fmt =
    Fmt.kstr (fun d_detail -> discs := { d_check; d_detail } :: !discs) fmt
  in
  (* ground truth *)
  (match (inst.Gen.truth, sup_of o1) with
  | Gen.Exact e, Some v ->
    if v <> e then add Truth "constructed sup is %d, explorer says %d" e v
  | Gen.Between (lb, ub), Some v ->
    if v < lb || v > ub then
      add Analytic "explorer sup %d outside the analytic window [%d, %d]" v
        lb ub
  | _, None ->
    add Truth "expected a sup value, explorer says %s" (outcome_str o1));
  (* bounded verdicts on both sides of the sup *)
  (match (get above).Mc.Query.res_outcome with
  | Mc.Query.Holds -> ()
  | o -> add Bounded "within %d should hold, got %s" (Gen.ub inst)
           (outcome_str o));
  (match (get below).Mc.Query.res_outcome with
  | Mc.Query.Fails _ -> ()
  | o ->
    add Bounded "within %d should fail (floor %d), got %s"
      (inst.Gen.floor - 1) inst.Gen.floor (outcome_str o));
  (* simulator measurement, last: it reads the sup *)
  let sim_max =
    match inst.Gen.sim with
    | Some si when cfg.scenarios > 0 ->
      sim_check cfg inst si
        ~sup:(sup_of r1.Mc.Query.res_outcome)
        (fun c detail -> add c "%s" detail)
    | Some _ | None -> None
  in
  { v_id = inst.Gen.id;
    v_shape = inst.Gen.shape;
    v_sup = sup_of r1.Mc.Query.res_outcome;
    v_sim_max = sim_max;
    v_discrepancies = List.rev !discs;
    v_wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) }
