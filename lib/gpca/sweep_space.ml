(* The GPCA design space for `psv sweep-schemes`: named grid axes over
   the bolus path's implementation choices, and the per-point problem
   builder the sweep engine consumes.

   Every point is a bolus-only PSM (the REQ1 cone): one polled or
   interrupt-driven bolus input, the start/stop outputs, one io
   boundary.  The dedup key therefore contains only what that PSM and
   the analytic bounds depend on — e.g. the poll interval drops out of
   the key whenever the mechanism axis says interrupt, collapsing the
   whole poll axis to one exploration. *)

let bolus = Model.bolus_req
let start = Model.start_infusion

type base = Small | Table1

(* The Table-I parameters produce 10k-100k-state explorations per
   point — fine for a handful, hopeless for a grid.  [Small] scales
   every constant down ~10x so an undecided point explores in 1-100 ms
   while keeping the same structure (poll < period < prep < hold). *)
let params_of_base = function
  | Table1 -> Params.default
  | Small ->
    { Params.default with
      Params.poll_interval = 10;
      bolus_proc = Scheme.delay 1 5;
      empty_proc = Scheme.delay 1 2;
      output_proc = Scheme.delay 5 10;
      period = 20;
      exec = { Scheme.wcet_min = 2; wcet_max = 8 };
      buffer_size = 2;
      prep_min = 25;
      prep_max = 50;
      infusion_hold = 200;
      infusion_slack = 40 }

let base_of_string = function
  | "small" -> Ok Small
  | "table1" -> Ok Table1
  | s -> Error (Printf.sprintf "unknown base %S (want small or table1)" s)

let base_name = function Small -> "small" | Table1 -> "table1"

(* REQ1 for each base: 500 ms against the Table-I constants; the same
   bound scaled with the rest of the space for [Small]. *)
let default_req = function Table1 -> Params.req1_bound | Small -> 60

let axis_names =
  [ ("period", "invocation period");
    ("poll", "polling interval (mech=1 points)");
    ("buffer", "io-boundary buffer capacity");
    ("policy", "0 read-all, 1 read-one");
    ("comm", "0 bounded buffer, 1 shared variable");
    ("mech", "0 interrupt, 1 polling (bolus input)");
    ("signal", "0 latched, 1 pulse, >=2 sustained for that duration");
    ("in_dmin", "Input-Device min processing delay");
    ("in_dmax", "Input-Device max processing delay");
    ("out_dmin", "Output-Device min processing delay");
    ("out_dmax", "Output-Device max processing delay");
    ("wcet", "execution-window max (min tracks the base)") ]

let validate_axes names =
  let known = List.map fst axis_names in
  match List.find_opt (fun n -> not (List.mem n known)) names with
  | Some n ->
    Error
      (Printf.sprintf "unknown axis %S (known: %s)" n
         (String.concat ", " known))
  | None -> Ok ()

(* --- per-point construction --------------------------------------------- *)

(* One grid assignment resolved against the base parameters: the
   per-point parameters (software timing and devices) and the bolus-path
   scheme. *)
let scheme_of_point base asg =
  let p0 = params_of_base base in
  let get name default =
    match List.assoc_opt name asg with Some v -> v | None -> default
  in
  let period = get "period" p0.Params.period in
  let poll = get "poll" p0.Params.poll_interval in
  let buffer = get "buffer" p0.Params.buffer_size in
  let policy =
    if get "policy" 0 = 0 then Scheme.Read_all else Scheme.Read_one
  in
  let shared = get "comm" 0 <> 0 in
  let mech = get "mech" 1 in
  let signal = get "signal" 0 in
  let in_delay =
    Scheme.delay
      (get "in_dmin" p0.Params.bolus_proc.Scheme.delay_min)
      (get "in_dmax" p0.Params.bolus_proc.Scheme.delay_max)
  in
  let out_delay =
    Scheme.delay
      (get "out_dmin" p0.Params.output_proc.Scheme.delay_min)
      (get "out_dmax" p0.Params.output_proc.Scheme.delay_max)
  in
  let wcet_max = get "wcet" p0.Params.exec.Scheme.wcet_max in
  let exec =
    { Scheme.wcet_min = min p0.Params.exec.Scheme.wcet_min wcet_max;
      wcet_max }
  in
  let in_signal =
    match signal with
    | 0 -> Scheme.Sustained_until_read
    | 1 -> Scheme.Pulse
    | d -> Scheme.Sustained d
  in
  let in_read =
    if mech = 0 then Scheme.Interrupt Scheme.Rising else Scheme.Polling poll
  in
  let p =
    { p0 with
      Params.poll_interval = poll;
      bolus_proc = in_delay;
      output_proc = out_delay;
      period;
      exec;
      buffer_size = buffer }
  in
  let comm =
    if shared then Scheme.Shared_variable else Scheme.Buffer (buffer, policy)
  in
  let scheme =
    { Scheme.is_name = "sweep";
      is_inputs = [ (bolus, { Scheme.in_signal; in_read; in_delay }) ];
      is_outputs =
        [ (start, Scheme.pulse_output out_delay);
          (Model.stop_infusion, Scheme.pulse_output out_delay) ];
      is_input_comm = comm;
      is_output_comm = Scheme.Buffer (max 1 buffer, Scheme.Read_all);
      is_invocation = Scheme.Periodic period;
      is_exec = exec }
  in
  (p, scheme)

(* Platform cost, componentwise minimised by the Pareto frontier.
   Faster is costlier: invocation rate, detection rate (a dedicated
   interrupt line counted as a fast, expensive detector), device
   speeds; plus the buffer memory itself.  Absolute numbers are
   arbitrary — only the partial order matters. *)
let cost (p : Params.t) (scheme : Scheme.t) =
  let spec = Scheme.input_spec scheme bolus in
  let detect =
    match spec.Scheme.in_read with
    | Scheme.Interrupt _ -> 2000
    | Scheme.Polling i -> 1000 / max 1 i
  in
  let slots =
    match scheme.Scheme.is_input_comm with
    | Scheme.Buffer (n, _) -> n
    | Scheme.Shared_variable -> 1
  in
  [| slots;
     10_000 / max 1 p.Params.period;
     detect;
     10_000 / (1 + spec.Scheme.in_delay.Scheme.delay_max);
     10_000 / (1 + p.Params.output_proc.Scheme.delay_max) |]

(* The environment is serial: a new bolus request can only follow the
   previous infusion's completion, so consecutive triggerings are at
   least a prep window plus the full hold apart. *)
let min_interarrival (p : Params.t) = p.Params.prep_min + p.Params.infusion_hold

let spec_of_assignment ?(variant = Model.Bolus_only) ~base ~req asg =
  let p, scheme = scheme_of_point base asg in
  let problems = Scheme.check scheme in
  let ub =
    Analysis.Bounds.relaxed_mc_delay scheme ~input:bolus ~output:start
      ~internal:p.Params.prep_max
  in
  let lb =
    Analysis.Bounds.relaxed_mc_delay_min scheme ~input:bolus ~output:start
      ~internal_min:p.Params.prep_min
  in
  let gap = min_interarrival p in
  (* Pass decisions additionally require the output path to clear
     before the next output can be produced (one start and one stop per
     cycle, a hold apart), so neither boundary can lose a value. *)
  let sound =
    Analysis.Bounds.loss_free_serial scheme bolus ~min_interarrival:gap
    && Analysis.Bounds.output_delay scheme start < p.Params.infusion_hold
  in
  (* everything the PSM and the bounds depend on; what the key omits
     (e.g. the poll axis on interrupt points) dedups away *)
  let key =
    Printf.sprintf "%s|prep%d:%d|hold%d+%d|req%d"
      (Scheme.to_key scheme)
      p.Params.prep_min p.Params.prep_max p.Params.infusion_hold
      p.Params.infusion_slack req
  in
  { Analysis.Sweep.sp_req = req;
    sp_ub = ub;
    sp_lb = lb;
    sp_sound = sound;
    sp_key = key;
    sp_net = (fun () -> (Model.psm_with ~variant p scheme).Transform.psm_net);
    sp_trigger = bolus;
    sp_response = start;
    sp_cost = cost p scheme;
    sp_invalid =
      (match problems with
       | [] -> None
       | ps -> Some (String.concat "; " ps)) }

let build ?variant ~base ~req grid index =
  spec_of_assignment ?variant ~base ~req (Scheme.Grid.point grid index)
