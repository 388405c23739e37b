(* Helper domains and the map over them.

   A helper is a domain that runs one job at a time.  Between jobs it
   waits, with [Unix.select], on its own pipe: [give] sets its task and
   writes one byte, both under [lock].  The park is a stack of idle
   helpers behind [lock]; [fork_join] pops the helpers it needs, spawns
   the shortfall, gives each one its job and runs [main] itself.  A
   helper that finishes goes back onto the park *before* it counts the
   caller's latch down, so a caller that forks again right after finds
   the same helper on top.  At most [cap] helpers stay parked; one that
   finds the park full exits.  A parked helper whose wait times out
   after [idle_s] takes itself off the park under [lock] and exits, so
   no fork pops a helper that is leaving; a helper popped but not yet
   given its job keeps waiting.  Nobody joins a helper. *)

type latch = {
  l_mutex : Mutex.t;
  l_done : Condition.t;
  mutable l_left : int;
  mutable l_failure : (exn * Printexc.raw_backtrace) option;
}

type helper = {
  h_rd : Unix.file_descr;
  h_wr : Unix.file_descr;
  mutable h_task : ((unit -> unit) * latch) option;  (* under [lock] *)
}

let idle_s = 1.0

let recommended_jobs () = Domain.recommended_domain_count ()

let cap = max 0 (recommended_jobs () - 1)

let lock = Mutex.create ()
let park : helper list ref = ref []

let parked () = Mutex.protect lock (fun () -> List.length !park)

let latch n =
  { l_mutex = Mutex.create (); l_done = Condition.create (); l_left = n;
    l_failure = None }

(* The first failure to arrive is the one [fork_join] raises. *)
let count_down l failure =
  Mutex.protect l.l_mutex (fun () ->
      if Option.is_none l.l_failure then l.l_failure <- failure;
      l.l_left <- l.l_left - 1;
      if l.l_left = 0 then Condition.signal l.l_done)

let run job =
  match job () with
  | () -> None
  | exception exn -> Some (exn, Printexc.get_raw_backtrace ())

(* The byte is written under [lock], so no helper takes its task, and
   perhaps exits, before the write. *)
let give h task =
  Mutex.protect lock (fun () ->
      h.h_task <- Some task;
      ignore (Unix.write_substring h.h_wr "x" 0 1 : int))

(* Returns when the helper leaves: idle too long, or the park full. *)
let rec serve h =
  let woken =
    match Unix.select [ h.h_rd ] [] [] idle_s with
    | [], _, _ -> false
    | _ -> ignore (Unix.read h.h_rd (Bytes.create 1) 0 1 : int); true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  match
    Mutex.protect lock (fun () ->
        match h.h_task with
        | Some task ->
          h.h_task <- None;
          `Run task
        | None when (not woken) && List.memq h !park ->
          park := List.filter (fun p -> p != h) !park;
          `Quit
        | None -> `Wait)
  with
  | `Wait -> serve h
  | `Quit -> ()
  | `Run (job, latch) ->
    let failure = run job in
    let stay =
      Mutex.protect lock (fun () ->
          let stay = List.length !park < cap in
          if stay then park := h :: !park;
          stay)
    in
    count_down latch failure;
    if stay then serve h

let spawn () =
  let h_rd, h_wr = Unix.pipe ~cloexec:true () in
  let h = { h_rd; h_wr; h_task = None } in
  let close () = Unix.close h_rd; Unix.close h_wr in
  match Domain.spawn (fun () -> serve h; close ()) with
  | (_ : unit Domain.t) -> h
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    close ();
    Printexc.raise_with_backtrace exn bt

(* All or nothing: if a spawn fails, the helpers popped or spawned so
   far are given an empty job (they park, or exit over [cap]) and the
   failure is raised before any job or [main] runs. *)
let acquire n =
  let popped =
    Mutex.protect lock (fun () ->
        let popped = List.filteri (fun i _ -> i < n) !park in
        park := List.filteri (fun i _ -> i >= n) !park;
        popped)
  in
  let rec more k acc =
    if k = 0 then acc
    else
      match spawn () with
      | h -> more (k - 1) (h :: acc)
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        let l = latch (List.length acc) in
        List.iter (fun h -> give h (ignore, l)) acc;
        Printexc.raise_with_backtrace exn bt
  in
  more (n - List.length popped) popped

let fork_join jobs main =
  let n = Array.length jobs in
  if n = 0 then main ()
  else begin
    let helpers = acquire n in
    let l = latch (n + 1) in
    (* backtrace recording is per domain: a job records as its caller *)
    let record = Printexc.backtrace_status () in
    List.iteri
      (fun i h ->
        give h ((fun () -> Printexc.record_backtrace record; jobs.(i) ()), l))
      helpers;
    count_down l (run main);
    Mutex.lock l.l_mutex;
    while l.l_left > 0 do
      Condition.wait l.l_done l.l_mutex
    done;
    let failure = l.l_failure in
    Mutex.unlock l.l_mutex;
    Option.iter (fun (exn, bt) -> Printexc.raise_with_backtrace exn bt) failure
  end

(* Items are claimed by an atomic next-index counter.  A claim loop
   that ends, by a raise too, pushes the counter to the end, so the
   others stop claiming; [fork_join] re-raises the first failure. *)
let map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min (min jobs (recommended_jobs ())) n) in
  if jobs <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let claim () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f arr.(i));
          loop ()
        end
      in
      Fun.protect ~finally:(fun () -> Atomic.set next n) loop
    in
    fork_join (Array.make (jobs - 1) claim) claim;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end
