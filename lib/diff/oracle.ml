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
  | Jobs
  | Bounded
  | Xta
  | Store_trip
  | Ladder
  | Sim

let check_name = function
  | Truth -> "truth"
  | Analytic -> "analytic"
  | Jobs -> "jobs"
  | Bounded -> "bounded"
  | Xta -> "xta"
  | Store_trip -> "store"
  | Ladder -> "ladder"
  | Sim -> "sim"

let check_of_name = function
  | "truth" -> Some Truth
  | "analytic" -> Some Analytic
  | "jobs" -> Some Jobs
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
  match cfg.cache with
  | Some c -> Analysis.Qcache.eval c net q
  | None -> Mc.Query.eval net q

(* ------------------------- construction-independent answerer pairs -- *)

let core cfg ~net ~q ~seed =
  let discs = ref [] in
  let add d_check fmt =
    Fmt.kstr (fun d_detail -> discs := { d_check; d_detail } :: !discs) fmt
  in
  let r1 = eval1 cfg net q in
  let o1 = mutate cfg.mutation r1.Mc.Query.res_outcome in
  (* parallel answerer: byte-identical outcome at any domain count *)
  let r2 = Mc.Query.eval ~jobs:cfg.jobs net q in
  if o1 <> r2.Mc.Query.res_outcome then
    add Jobs "jobs 1 says %s, jobs %d says %s" (outcome_str o1) cfg.jobs
      (outcome_str r2.Mc.Query.res_outcome);
  (* textual round-trip: print, reparse, re-verify *)
  (match Xta.Parse.network (Xta.Print.to_string net) with
  | Error msg -> add Xta "printed network does not reparse: %s" msg
  | Ok net' -> (
    match Ta.Model.validate net' with
    | _ :: _ as ps ->
      add Xta "reparsed network invalid: %s" (String.concat "; " ps)
    | [] ->
      let rx = Mc.Query.eval net' q in
      if rx.Mc.Query.res_outcome <> r1.Mc.Query.res_outcome then
        add Xta "round-trip changes outcome: %s -> %s"
          (outcome_str r1.Mc.Query.res_outcome)
          (outcome_str rx.Mc.Query.res_outcome)));
  (* store round-trip: the warm answer must equal the cold one *)
  (match cfg.cache with
  | None -> ()
  | Some c ->
    let r1' = Analysis.Qcache.eval c net q in
    if r1'.Mc.Query.res_outcome <> r1.Mc.Query.res_outcome then
      add Store_trip "stored entry answers %s, computed %s"
        (outcome_str r1'.Mc.Query.res_outcome)
        (outcome_str r1.Mc.Query.res_outcome));
  (* incremental ladder on a seeded edit vs a from-scratch run *)
  (match Incr.Edit.random_edit (Random.State.make [| 0xde17a; seed |]) net with
  | exception Invalid_argument _ -> ()
  | edit ->
    let sess = Incr.Session.make ~tag:"fuzz" () in
    ignore (Incr.Session.run sess net q);
    let incr_o =
      (Incr.Session.run sess edit.Incr.Edit.ed_net q).Incr.Session.so_result
    in
    let scratch = Mc.Query.eval edit.Incr.Edit.ed_net q in
    if incr_o.Mc.Query.res_outcome <> scratch.Mc.Query.res_outcome then
      add Ladder "after %S ladder says %s, scratch says %s"
        edit.Incr.Edit.ed_desc
        (outcome_str incr_o.Mc.Query.res_outcome)
        (outcome_str scratch.Mc.Query.res_outcome));
  (r1, o1, List.rev !discs)

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
  done

(* ------------------------------------------------------ the oracle -- *)

let run cfg (inst : Gen.instance) =
  let t0 = Unix.gettimeofday () in
  let q = Gen.query inst in
  let r1, o1, core_discs =
    core cfg ~net:inst.Gen.net ~q ~seed:(inst.Gen.seed + inst.Gen.index)
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
  let bounded bound =
    Mc.Query.Bounded_response
      { trigger = inst.Gen.trigger; response = inst.Gen.response; bound }
  in
  (match (Mc.Query.eval inst.Gen.net (bounded (Gen.ub inst))).res_outcome with
  | Mc.Query.Holds -> ()
  | o -> add Bounded "within %d should hold, got %s" (Gen.ub inst)
           (outcome_str o));
  (match
     (Mc.Query.eval inst.Gen.net (bounded (inst.Gen.floor - 1))).res_outcome
   with
  | Mc.Query.Fails _ -> ()
  | o ->
    add Bounded "within %d should fail (floor %d), got %s"
      (inst.Gen.floor - 1) inst.Gen.floor (outcome_str o));
  (* simulator measurement *)
  (match inst.Gen.sim with
  | Some si when cfg.scenarios > 0 ->
    sim_check cfg inst si
      ~sup:(sup_of r1.Mc.Query.res_outcome)
      (fun c detail -> add c "%s" detail)
  | Some _ | None -> ());
  { v_id = inst.Gen.id;
    v_shape = inst.Gen.shape;
    v_sup = sup_of r1.Mc.Query.res_outcome;
    v_discrepancies = List.rev !discs;
    v_wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) }
