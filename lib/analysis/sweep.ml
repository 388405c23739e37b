(* The scheme-space sweep engine: race the Lemma-1/2 analytic bounds
   against the zone explorer over a grid of implementation schemes.

   Per point the race has four outcomes, tried in order of cost:
     1. the scheme is physically invalid (Scheme.check)  -> Invalid, free;
     2. the analytic upper bound already meets the requirement and the
        point is loss-free                               -> Pass, free;
     3. the analytic lower bound already violates it     -> Fail, free;
     4. otherwise the point joins the undecided band and is model
        checked with ceiling = requirement (exact there).

   Undecided points are deduplicated on their canonical key before any
   network is built: grid axes outside the requirement's cone of
   influence produce identical keys, so a million-point grid often
   collapses to a few hundred explorations.  Keys resolved earlier in
   the run answer later points from an in-memory memo; the persistent
   store (--cache) extends the same dedup across runs. *)

type verdict = Pass | Fail | Unknown | Invalid

type decision =
  | By_upper_bound
  | By_lower_bound
  | By_invalid
  | By_explorer
  | By_memo

type spec = {
  sp_req : int;
  sp_ub : int;
  sp_lb : int;
  sp_sound : bool;
  sp_key : string;
  sp_net : unit -> Ta.Model.network;
  sp_trigger : string;
  sp_response : string;
  sp_cost : int array;
  sp_invalid : string option;
}

type point_result = {
  pr_index : int;
  pr_verdict : verdict;
  pr_decision : decision;
  pr_ub : int;
  pr_lb : int;
  pr_sup : Mc.Explorer.sup_result option;
  pr_cost : int array;
}

type config = {
  sw_prefilter : bool;
  sw_jobs : int;
  sw_limit : int option;
  sw_ctl : Mc.Runctl.t option;
  sw_cache : Qcache.t option;
  sw_audit : int;
  sw_emit : (point_result -> unit) option;
}

let default_config =
  { sw_prefilter = true;
    sw_jobs = 1;
    sw_limit = None;
    sw_ctl = None;
    sw_cache = None;
    sw_audit = 0;
    sw_emit = None }

type outcome = {
  o_points : int;
  o_pass : int;
  o_fail : int;
  o_unknown : int;
  o_invalid : int;
  o_analytic_pass : int;
  o_analytic_fail : int;
  o_explored : int;
  o_memo_hits : int;
  o_mc_runs : int;
  o_skip_rate : float;
  o_audited : int;
  o_audit_mismatches : (int * string) list;
  o_interrupted : int;
  o_wall_ms : float;
  o_pareto : (int * int array) list;
}

let verdict_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Unknown -> "unknown"
  | Invalid -> "invalid"

let decision_name = function
  | By_upper_bound -> "analytic-ub"
  | By_lower_bound -> "analytic-lb"
  | By_invalid -> "invalid"
  | By_explorer -> "explorer"
  | By_memo -> "memo"

(* --- Pareto frontier ----------------------------------------------------- *)

(* [a] dominates [b] when it is no worse on every cost component and
   strictly better on at least one.  The frontier keeps the
   non-dominated Pass points; ties (equal vectors) keep the first. *)
let dominates a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let le = ref true and lt = ref false in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then le := false;
    if a.(i) < b.(i) then lt := true
  done;
  !le && !lt

let pareto_insert frontier (i, cost) =
  let equal a b = a = b in
  if
    List.exists
      (fun (_, c) -> dominates c cost || equal c cost)
      frontier
  then frontier
  else (i, cost) :: List.filter (fun (_, c) -> not (dominates cost c)) frontier

(* --- the race ------------------------------------------------------------ *)

type classified =
  | C_invalid of string
  | C_analytic of verdict * decision
  | C_explore

let classify cfg sp =
  match sp.sp_invalid with
  | Some msg -> C_invalid msg
  | None ->
    if not cfg.sw_prefilter then C_explore
      (* Pass needs soundness (an input loss would make the true sup
         unbounded however small the analytic bound); Fail does not — a
         lost input only makes the delay worse, and the lower bound's
         witness run exists in every valid scheme. *)
    else if sp.sp_sound && sp.sp_ub <= sp.sp_req then
      C_analytic (Pass, By_upper_bound)
    else if sp.sp_lb > sp.sp_req then C_analytic (Fail, By_lower_bound)
    else C_explore

let exceeded = function
  | Mc.Explorer.Sup_exceeds _ -> true
  | Mc.Explorer.Sup_unreached | Mc.Explorer.Sup _ -> false

(* One exploration of the undecided band: the sup with ceiling =
   requirement, so the bound check is exact and a partial sup past the
   ceiling still refutes.  The search stops once the running sup is
   [Sup_exceeds], which is absorbing, so verdict and sup are those of
   the full search while a finite sup still runs to its exact value.
   Each exploration runs on a sibling of [sw_ctl], so the budget applies
   per point from the point's own start while cancelling [sw_ctl] still
   stops the whole sweep. *)
let explore cfg sp =
  let net = sp.sp_net () in
  let trigger = sp.sp_trigger and response = sp.sp_response in
  let ceiling = sp.sp_req and limit = cfg.sw_limit in
  let ctl = Option.map Mc.Runctl.sibling cfg.sw_ctl in
  let run () =
    Mc.Query.result_of_sup
      (Mc.Query.max_delay ?limit ?ctl ~until:exceeded net ~trigger ~response
         ~ceiling)
  in
  let r =
    match cfg.sw_cache with
    | None -> run ()
    | Some cache ->
      Qcache.cached cache ?limit ?ctl net
        (Mc.Query.Sup_delay { trigger; response; ceiling })
        ~run
  in
  let verdict =
    match Mc.Query.bounded_of_sup r.Mc.Query.res_outcome ~bound:sp.sp_req with
    | Mc.Query.Holds -> Pass
    | Mc.Query.Fails _ -> Fail
    | Mc.Query.Unknown _ | Mc.Query.Sup _ -> Unknown
  in
  let sup, interrupted =
    match r.Mc.Query.res_outcome with
    | Mc.Query.Sup s -> (s, false)
    | Mc.Query.Unknown (_, partial) ->
      (Option.value partial ~default:Mc.Explorer.Sup_unreached, true)
    | Mc.Query.Holds | Mc.Query.Fails _ -> (Mc.Explorer.Sup_unreached, false)
  in
  (verdict, sup, interrupted)

(* points decoded and classified at a time: bounds memory, since the
   grid itself is never materialised *)
let batch = 4096

let run cfg ~points ~build =
  if points < 0 then invalid_arg "Sweep.run: negative point count";
  let t0 = Unix.gettimeofday () in
  (* key -> (verdict, sup): every exploration lands here, so a key is
     model checked at most once per run whatever the batch layout *)
  let memo : (string, verdict * Mc.Explorer.sup_result) Hashtbl.t =
    Hashtbl.create 256
  in
  let pass = ref 0 and fail = ref 0 and unknown = ref 0 and invalid = ref 0 in
  let analytic_pass = ref 0 and analytic_fail = ref 0 in
  let explored = ref 0 and memo_hits = ref 0 and mc_runs = ref 0 in
  let audited = ref 0 and audit_mismatches = ref [] in
  let interrupted = ref 0 in
  let analytic_seen = ref 0 in
  let pareto = ref [] in
  let record pr =
    (match pr.pr_verdict with
     | Pass ->
       incr pass;
       pareto := pareto_insert !pareto (pr.pr_index, pr.pr_cost)
     | Fail -> incr fail
     | Unknown -> incr unknown
     | Invalid -> incr invalid);
    match cfg.sw_emit with None -> () | Some emit -> emit pr
  in
  let lo = ref 0 in
  while !lo < points do
    let hi = min points (!lo + batch) in
    let specs = Array.init (hi - !lo) (fun k -> build (!lo + k)) in
    let classified = Array.map (classify cfg) specs in
    (* the undecided band of this batch, deduplicated by key; audited
       analytic points piggyback on the same pool run *)
    let to_run : (string, spec) Hashtbl.t = Hashtbl.create 64 in
    let want_explore sp =
      if not (Hashtbl.mem memo sp.sp_key || Hashtbl.mem to_run sp.sp_key) then
        Hashtbl.add to_run sp.sp_key sp
    in
    Array.iteri
      (fun k -> function
        | C_explore -> want_explore specs.(k)
        | C_analytic _ when cfg.sw_audit > 0 ->
          incr analytic_seen;
          if !analytic_seen mod cfg.sw_audit = 0 then want_explore specs.(k)
        | C_analytic _ | C_invalid _ -> ())
      classified;
    let pending = Hashtbl.fold (fun key sp acc -> (key, sp) :: acc) to_run [] in
    List.iter
      (fun (key, (verdict, sup, interrupted_run)) ->
        incr mc_runs;
        if interrupted_run then incr interrupted;
        Hashtbl.replace memo key (verdict, sup))
      (Pool.map ~jobs:cfg.sw_jobs
         (fun (key, sp) -> (key, explore cfg sp))
         pending);
    (* resolve the batch in index order *)
    Array.iteri
      (fun k cls ->
        let sp = specs.(k) in
        let index = !lo + k in
        match cls with
        | C_invalid _ ->
          record
            { pr_index = index;
              pr_verdict = Invalid;
              pr_decision = By_invalid;
              pr_ub = sp.sp_ub;
              pr_lb = sp.sp_lb;
              pr_sup = None;
              pr_cost = sp.sp_cost }
        | C_analytic (v, d) ->
          (match v, d with
           | Pass, _ -> incr analytic_pass
           | Fail, _ -> incr analytic_fail
           | (Unknown | Invalid), _ -> ());
          (match Hashtbl.find_opt memo sp.sp_key with
           | Some (mc_v, _) ->
             (* this analytic decision was sampled for audit *)
             incr audited;
             if mc_v <> v && mc_v <> Unknown then
               audit_mismatches :=
                 ( index,
                   Printf.sprintf "analytic %s vs explorer %s"
                     (verdict_name v) (verdict_name mc_v) )
                 :: !audit_mismatches
           | None -> ());
          record
            { pr_index = index;
              pr_verdict = v;
              pr_decision = d;
              pr_ub = sp.sp_ub;
              pr_lb = sp.sp_lb;
              pr_sup = None;
              pr_cost = sp.sp_cost }
        | C_explore ->
          let v, sup = Hashtbl.find memo sp.sp_key in
          let fresh = Hashtbl.mem to_run sp.sp_key in
          if fresh then Hashtbl.remove to_run sp.sp_key else incr memo_hits;
          incr explored;
          record
            { pr_index = index;
              pr_verdict = v;
              pr_decision = (if fresh then By_explorer else By_memo);
              pr_ub = sp.sp_ub;
              pr_lb = sp.sp_lb;
              pr_sup = Some sup;
              pr_cost = sp.sp_cost })
      classified;
    lo := hi
  done;
  let decided = !analytic_pass + !analytic_fail + !invalid in
  { o_points = points;
    o_pass = !pass;
    o_fail = !fail;
    o_unknown = !unknown;
    o_invalid = !invalid;
    o_analytic_pass = !analytic_pass;
    o_analytic_fail = !analytic_fail;
    o_explored = !explored;
    o_memo_hits = !memo_hits;
    o_mc_runs = !mc_runs;
    o_skip_rate =
      (if points = 0 then 1.0 else float_of_int decided /. float_of_int points);
    o_audited = !audited;
    o_audit_mismatches = List.rev !audit_mismatches;
    o_interrupted = !interrupted;
    o_wall_ms = 1000. *. (Unix.gettimeofday () -. t0);
    o_pareto = List.rev !pareto }
