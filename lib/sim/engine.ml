type typical = {
  typ_input_proc : string -> float * float;
  typ_output_proc : string -> float * float;
  typ_exec : float * float;
}

type event =
  | Env_signal of string
  | Input_inserted of string
  | Input_read of string
  | Input_discarded of string
  | Input_lost of string
  | Code_output of string
  | Output_visible of string
  | Output_lost of string

type entry = {
  at : float;
  event : event;
}

type config = {
  cfg_pim : Transform.Pim.t;
  cfg_scheme : Scheme.t;
  cfg_typical : typical;
  cfg_stimuli : (float * string) list;
  cfg_horizon : float;
}

type faults = {
  f_delay_jitter : float;
  f_drop : float;
  f_dup : float;
}

let faults ?(jitter = 0.0) ?(drop = 0.0) ?(dup = 0.0) () =
  if jitter < 0.0 then invalid_arg "Engine.faults: jitter must be >= 0";
  let prob name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Engine.faults: %s must be in [0, 1]" name)
  in
  prob "drop" drop;
  prob "dup" dup;
  { f_delay_jitter = jitter; f_drop = drop; f_dup = dup }

(* queued simulation events *)
type sim_event =
  | Stimulus of string
  | Poll of string
  | Latch_drop of string * int  (* generation, to cancel stale drops *)
  | Input_done of string
  | Invoke
  | Window_end
  | Output_done of string

type input_device = {
  in_chan : string;
  in_spec : Scheme.mc_input;
  mutable in_latch : bool;
  mutable in_latch_gen : int;
  mutable in_busy : bool;
  mutable in_buf : int;
}

type output_device = {
  out_chan : string;
  mutable out_busy : bool;
  mutable out_buf : int;
}

type executive = {
  mutable exe_busy : bool;
  mutable exe_pending_invoke : bool;
  mutable exe_staged : string list;  (* outputs of the current invocation *)
}

let pp_event ppf = function
  | Env_signal c -> Fmt.pf ppf "env-signal %s" c
  | Input_inserted c -> Fmt.pf ppf "input-inserted %s" c
  | Input_read c -> Fmt.pf ppf "input-read %s" c
  | Input_discarded c -> Fmt.pf ppf "input-discarded %s" c
  | Input_lost c -> Fmt.pf ppf "input-lost %s" c
  | Code_output c -> Fmt.pf ppf "code-output %s" c
  | Output_visible c -> Fmt.pf ppf "output-visible %s" c
  | Output_lost c -> Fmt.pf ppf "output-lost %s" c

let pp_entry ppf e = Fmt.pf ppf "%8.2f  %a" e.at pp_event e.event

let input_capacity scheme =
  match scheme.Scheme.is_input_comm with
  | Scheme.Buffer (size, _) -> size
  | Scheme.Shared_variable -> 1

let output_capacity scheme =
  match scheme.Scheme.is_output_comm with
  | Scheme.Buffer (size, _) -> size
  | Scheme.Shared_variable -> 1

let run ~seed ?faults config =
  let rng = Rng.create seed in
  (* the fault stream is split off a second generator on the same seed,
     so [faults = None] is draw-for-draw identical to the engine before
     fault injection existed, and runs on different seeds take
     different drop/dup decisions *)
  let frng = Option.map (fun f -> (Rng.split (Rng.create seed), f)) faults in
  let chance p =
    match frng with
    | Some (r, _) when p > 0.0 -> Rng.float01 r < p
    | Some _ | None -> false
  in
  (* jitter only ever stretches a device delay; it never shortens one,
     so analytic lower bounds survive any degradation level *)
  let jitter v =
    match frng with
    | Some (r, f) when f.f_delay_jitter > 0.0 ->
      v *. (1.0 +. (Rng.float01 r *. f.f_delay_jitter))
    | Some _ | None -> v
  in
  let scheme = config.cfg_scheme in
  let pim = config.cfg_pim in
  let log = ref [] in
  let record at event = log := { at; event } :: !log in
  let queue : sim_event Event_queue.t = Event_queue.create () in
  let inputs =
    List.map
      (fun m ->
        { in_chan = m;
          in_spec = Scheme.input_spec scheme m;
          in_latch = false;
          in_latch_gen = 0;
          in_busy = false;
          in_buf = 0 })
      pim.Transform.Pim.pim_inputs
  in
  let outputs =
    List.map
      (fun c -> { out_chan = c; out_busy = false; out_buf = 0 })
      pim.Transform.Pim.pim_outputs
  in
  let exe = { exe_busy = false; exe_pending_invoke = false; exe_staged = [] } in
  let runner = Code_runner.create (Transform.Pim.software pim) in
  let input m = List.find (fun d -> d.in_chan = m) inputs in
  let output c = List.find (fun d -> d.out_chan = c) outputs in
  let draw (lo, hi) = jitter (Rng.float_range rng lo hi) in
  let input_proc_time d = draw (config.cfg_typical.typ_input_proc d.in_chan) in
  let start_input_processing t d =
    d.in_busy <- true;
    Event_queue.push queue (t +. input_proc_time d) (Input_done d.in_chan)
  in
  let request_invoke t delay =
    if not (exe.exe_busy || exe.exe_pending_invoke) then begin
      exe.exe_pending_invoke <- true;
      Event_queue.push queue (t +. delay) Invoke
    end
  in
  let start_output t d =
    if (not d.out_busy) && d.out_buf > 0 then begin
      d.out_buf <- d.out_buf - 1;
      d.out_busy <- true;
      let proc = draw (config.cfg_typical.typ_output_proc d.out_chan) in
      Event_queue.push queue (t +. proc) (Output_done d.out_chan)
    end
  in
  let insert_input t d =
    if d.in_buf < input_capacity scheme then begin
      d.in_buf <- d.in_buf + 1;
      record t (Input_inserted d.in_chan);
      match scheme.Scheme.is_invocation with
      | Scheme.Aperiodic gap -> request_invoke t (float_of_int gap)
      | Scheme.Periodic _ -> ()
    end
    else record t (Input_lost d.in_chan)
  in
  let deliver_one t d =
    d.in_buf <- d.in_buf - 1;
    if Code_runner.deliver runner ~now:t d.in_chan then
      record t (Input_read d.in_chan)
    else record t (Input_discarded d.in_chan)
  in
  let read_stage t =
    match scheme.Scheme.is_input_comm with
    | Scheme.Buffer (_, Scheme.Read_one) ->
      (match List.find_opt (fun d -> d.in_buf > 0) inputs with
       | Some d -> deliver_one t d
       | None -> ())
    | Scheme.Buffer (_, Scheme.Read_all) | Scheme.Shared_variable ->
      List.iter
        (fun d ->
          while d.in_buf > 0 do
            deliver_one t d
          done)
        inputs
  in
  let stimulate t d m =
    match d.in_spec.Scheme.in_read with
    | Scheme.Interrupt _ ->
      if d.in_busy then record t (Input_lost m)
      else start_input_processing t d
    | Scheme.Polling _ ->
      d.in_latch <- true;
      d.in_latch_gen <- d.in_latch_gen + 1;
      (match d.in_spec.Scheme.in_signal with
       | Scheme.Sustained duration ->
         Event_queue.push queue
           (t +. float_of_int duration)
           (Latch_drop (m, d.in_latch_gen))
       | Scheme.Sustained_until_read | Scheme.Pulse -> ())
  in
  let handle t = function
    | Stimulus m ->
      let d = input m in
      record t (Env_signal m);
      let dropped = chance (match frng with Some (_, f) -> f.f_drop | None -> 0.0) in
      if dropped then
        (* the signal fired but the mc-boundary sample vanished before
           the device noticed: neither latch nor interrupt dispatch *)
        record t (Input_lost m)
      else begin
        stimulate t d m;
        (* a duplicated sample behaves like contact bounce: the device
           is stimulated again immediately.  An interrupt line mid-
           processing loses the duplicate; a polling latch absorbs it. *)
        if chance (match frng with Some (_, f) -> f.f_dup | None -> 0.0) then
          stimulate t d m
      end
    | Latch_drop (m, generation) ->
      let d = input m in
      if d.in_latch_gen = generation then d.in_latch <- false
    | Poll m ->
      let d = input m in
      if d.in_busy then ()  (* next poll is scheduled from Input_done *)
      else if d.in_latch then begin
        d.in_latch <- false;
        start_input_processing t d
      end
      else begin
        match d.in_spec.Scheme.in_read with
        | Scheme.Polling interval ->
          Event_queue.push queue (t +. float_of_int interval) (Poll m)
        | Scheme.Interrupt _ -> assert false
      end
    | Input_done m ->
      let d = input m in
      d.in_busy <- false;
      insert_input t d;
      (match d.in_spec.Scheme.in_read with
       | Scheme.Polling interval ->
         Event_queue.push queue (t +. float_of_int interval) (Poll m)
       | Scheme.Interrupt _ -> ())
    | Invoke ->
      exe.exe_pending_invoke <- false;
      exe.exe_busy <- true;
      read_stage t;
      let emitted = Code_runner.compute runner ~now:t in
      List.iter (fun c -> record t (Code_output c)) emitted;
      exe.exe_staged <- exe.exe_staged @ emitted;
      let lo, hi = config.cfg_typical.typ_exec in
      Event_queue.push queue (t +. Rng.float_range rng lo hi) Window_end;
      (match scheme.Scheme.is_invocation with
       | Scheme.Periodic period ->
         Event_queue.push queue (t +. float_of_int period) Invoke
       | Scheme.Aperiodic _ -> ())
    | Window_end ->
      let staged = exe.exe_staged in
      exe.exe_staged <- [];
      exe.exe_busy <- false;
      List.iter
        (fun c ->
          let d = output c in
          if d.out_buf < output_capacity scheme then begin
            d.out_buf <- d.out_buf + 1;
            start_output t d
          end
          else record t (Output_lost c))
        staged;
      (match scheme.Scheme.is_invocation with
       | Scheme.Aperiodic gap ->
         if List.exists (fun d -> d.in_buf > 0) inputs then
           request_invoke t (float_of_int gap)
       | Scheme.Periodic _ -> ())
    | Output_done c ->
      let d = output c in
      d.out_busy <- false;
      record t (Output_visible c);
      start_output t d
  in
  (* initial schedule *)
  List.iter (fun (t, m) -> Event_queue.push queue t (Stimulus m))
    config.cfg_stimuli;
  List.iter
    (fun d ->
      match d.in_spec.Scheme.in_read with
      | Scheme.Polling interval ->
        Event_queue.push queue (float_of_int interval) (Poll d.in_chan)
      | Scheme.Interrupt _ -> ())
    inputs;
  (match scheme.Scheme.is_invocation with
   | Scheme.Periodic period ->
     Event_queue.push queue (float_of_int period) Invoke
   | Scheme.Aperiodic _ -> ());
  (* main loop *)
  let rec loop () =
    match Event_queue.pop queue with
    | Some (t, ev) when t <= config.cfg_horizon ->
      handle t ev;
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  List.rev !log
