(* Parked helper domains.

   A helper is a domain that runs one job at a time and, between jobs,
   sleeps on its own mutex and condition.  The park is a stack of idle
   helpers behind one mutex; [fork_join] pops the helpers it needs,
   spawns the shortfall, hands each one its job and runs [main] itself.
   A helper that finishes goes back onto the park *before* it counts the
   caller's latch down, so a caller that forks again right after finds
   the same helper waiting.  At most [cap] helpers stay parked; one that
   finds the park full exits instead, and nobody joins it. *)

type latch = {
  l_mutex : Mutex.t;
  l_done : Condition.t;
  mutable l_left : int;
  mutable l_failure : (exn * Printexc.raw_backtrace) option;
}

type task = Idle | Run of (unit -> unit) * latch | Quit

type helper = {
  h_mutex : Mutex.t;
  h_wake : Condition.t;
  mutable h_task : task;
}

let cap = max 0 (Domain.recommended_domain_count () - 1)

let park_mutex = Mutex.create ()
let park : helper list ref = ref []
let count = ref 0

let parked () = Mutex.protect park_mutex (fun () -> !count)

let give h task =
  Mutex.lock h.h_mutex;
  h.h_task <- task;
  Condition.signal h.h_wake;
  Mutex.unlock h.h_mutex

(* [true] if [h] is parked now, [false] if the park is full *)
let release h =
  Mutex.protect park_mutex (fun () ->
      let stay = !count < cap in
      if stay then begin
        park := h :: !park;
        incr count
      end;
      stay)

let count_down l failure =
  Mutex.lock l.l_mutex;
  (match l.l_failure with None -> l.l_failure <- failure | Some _ -> ());
  l.l_left <- l.l_left - 1;
  if l.l_left = 0 then Condition.signal l.l_done;
  Mutex.unlock l.l_mutex

let rec serve h =
  Mutex.lock h.h_mutex;
  let rec next () =
    match h.h_task with
    | Idle ->
      Condition.wait h.h_wake h.h_mutex;
      next ()
    | task ->
      h.h_task <- Idle;
      task
  in
  let task = next () in
  Mutex.unlock h.h_mutex;
  match task with
  | Idle | Quit -> ()
  | Run (job, latch) ->
    let failure =
      match job () with
      | () -> None
      | exception exn -> Some (exn, Printexc.get_raw_backtrace ())
    in
    let stay = release h in
    count_down latch failure;
    if stay then serve h

(* a helper that was acquired but never given a job *)
let dismiss h = if not (release h) then give h Quit

(* All or nothing: if a spawn fails, the helpers already acquired go
   back (parked, or told to quit) before the failure is raised, so no
   job has started and no domain is left waiting for one. *)
let acquire n =
  let taken =
    Mutex.protect park_mutex (fun () ->
        let rec pop k acc =
          match !park with
          | h :: rest when k > 0 ->
            park := rest;
            decr count;
            pop (k - 1) (h :: acc)
          | _ -> acc
        in
        pop n [])
  in
  let rec spawn k acc =
    if k = 0 then acc
    else begin
      let h =
        { h_mutex = Mutex.create (); h_wake = Condition.create ();
          h_task = Idle }
      in
      match Domain.spawn (fun () -> serve h) with
      | (_ : unit Domain.t) -> spawn (k - 1) (h :: acc)
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        List.iter dismiss acc;
        Printexc.raise_with_backtrace exn bt
    end
  in
  spawn (n - List.length taken) taken

let fork_join jobs main =
  let n = Array.length jobs in
  if n = 0 then main ()
  else begin
    let helpers = Array.of_list (acquire n) in
    let latch =
      { l_mutex = Mutex.create (); l_done = Condition.create (); l_left = n;
        l_failure = None }
    in
    Array.iteri (fun i h -> give h (Run (jobs.(i), latch))) helpers;
    let mine =
      match main () with
      | () -> None
      | exception exn -> Some (exn, Printexc.get_raw_backtrace ())
    in
    Mutex.lock latch.l_mutex;
    while latch.l_left > 0 do
      Condition.wait latch.l_done latch.l_mutex
    done;
    let theirs = latch.l_failure in
    Mutex.unlock latch.l_mutex;
    match mine, theirs with
    | Some (exn, bt), _ | None, Some (exn, bt) ->
      Printexc.raise_with_backtrace exn bt
    | None, None -> ()
  end
