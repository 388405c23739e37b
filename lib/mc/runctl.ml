type reason =
  | Time_budget of float
  | State_budget of int
  | Memory_budget of int
  | Cancelled
  | Crash of string

type budget = {
  b_time_s : float option;
  b_states : int option;
  b_mem_bytes : int option;
}

let no_budget = { b_time_s = None; b_states = None; b_mem_bytes = None }

(* Both mutable fields are [Atomic.t] because one token is shared by
   every domain of a partitioned search (Explorer.search at jobs > 1).  A plain mutable bool
   written by the cancelling domain (or a signal handler) carries no
   inter-domain publication guarantee under the OCaml 5 memory model: a
   worker could spin on a stale cached value forever.  [Atomic.get/set]
   are seq-cst, so a [cancel] becomes visible to every subsequent
   [check] on any domain. *)
type t = {
  budget : budget;
  started : float;
  is_cancelled : bool Atomic.t;
  ticks : int Atomic.t;  (* calls to [check] since the last expensive poll *)
}

let create ?(budget = no_budget) () =
  { budget;
    started = Unix.gettimeofday ();
    is_cancelled = Atomic.make false;
    ticks = Atomic.make 0 }

let budget t = t.budget

let sibling t =
  { t with started = Unix.gettimeofday (); ticks = Atomic.make 0 }

let cancel t = Atomic.set t.is_cancelled true

let cancelled t = Atomic.get t.is_cancelled

(* Sampling interval for the expensive checks (clock, heap).  Power of
   two so the modulo is a mask. *)
let sample_mask = 255

let word_bytes = Sys.word_size / 8

(* The expensive sampled polls: wall clock and heap size. *)
let slow_poll t =
  let over_time =
    match t.budget.b_time_s with
    | Some limit when Unix.gettimeofday () -. t.started >= limit ->
      Some (Time_budget limit)
    | Some _ | None -> None
  in
  match over_time with
  | Some _ as r -> r
  | None ->
    (match t.budget.b_mem_bytes with
     | Some limit when (Gc.quick_stat ()).Gc.heap_words * word_bytes >= limit
       ->
       Some (Memory_budget limit)
     | Some _ | None -> None)

let over_states t ~visited =
  match t.budget.b_states with
  | Some n when visited >= n -> Some (State_budget n)
  | Some _ | None -> None

let check t ~visited =
  if Atomic.get t.is_cancelled then Some Cancelled
  else begin
    match over_states t ~visited with
    | Some _ as r -> r
    | None ->
      (* [ticks = 0] on the first call, so a run that is already over
         budget stops before expanding anything.  Under a parallel
         search the counter is shared: the sampling interval is global
         across workers, not per worker, keeping the clock/heap poll
         rate independent of the worker count. *)
      let sample = Atomic.fetch_and_add t.ticks 1 land sample_mask = 0 in
      if not sample then None else slow_poll t
  end

(* Sampling interval for [check_striped].  Tighter than [sample_mask]
   because each worker ticks at roughly 1/jobs the fleet's rate. *)
let striped_mask = 63

let check_striped t ~visited ~tick =
  if Atomic.get t.is_cancelled then Some Cancelled
  else begin
    match over_states t ~visited with
    | Some _ as r -> r
    | None -> if tick land striped_mask <> 0 then None else slow_poll t
  end

let install_sigint t =
  match Sys.signal Sys.sigint (Sys.Signal_handle (fun _ ->
      cancel t;
      (* second ^C falls through to the default handler: terminate *)
      Sys.set_signal Sys.sigint Sys.Signal_default))
  with
  | _previous -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let parse_duration s =
  let s = String.trim s in
  let num text =
    match float_of_string_opt text with
    | Some v when v >= 0.0 -> Ok v
    | Some _ -> Error "duration must be non-negative"
    | None -> Error (Printf.sprintf "cannot parse %S as a number" text)
  in
  let scaled text factor =
    Result.map (fun v -> v *. factor) (num text)
  in
  let n = String.length s in
  if n = 0 then Error "empty duration"
  else if n >= 2 && String.sub s (n - 2) 2 = "ms" then
    scaled (String.sub s 0 (n - 2)) 0.001
  else
    match s.[n - 1] with
    | 's' -> num (String.sub s 0 (n - 1))
    | 'm' -> scaled (String.sub s 0 (n - 1)) 60.0
    | 'h' -> scaled (String.sub s 0 (n - 1)) 3600.0
    | _ -> num s

let pp_reason ppf = function
  | Time_budget limit -> Fmt.pf ppf "time budget (%gs) exhausted" limit
  | State_budget limit -> Fmt.pf ppf "state budget (%d) exhausted" limit
  | Memory_budget limit ->
    Fmt.pf ppf "memory budget (%d MB) exhausted" (limit / (1024 * 1024))
  | Cancelled -> Fmt.string ppf "cancelled"
  | Crash msg -> Fmt.pf ppf "worker crashed: %s" msg

let reason_tag = function
  | Time_budget _ -> "time-budget"
  | State_budget _ -> "state-budget"
  | Memory_budget _ -> "memory-budget"
  | Cancelled -> "cancelled"
  | Crash _ -> "crash"
