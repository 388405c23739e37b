type 'a t = {
  cap : int;
  q : 'a Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  shed : int Atomic.t;
}

let create ~capacity () =
  { cap = max 1 capacity;
    q = Queue.create ();
    mu = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    shed = Atomic.make 0 }

let capacity t = t.cap
let shed t = Atomic.get t.shed

let depth t =
  Mutex.lock t.mu;
  let n = Queue.length t.q in
  Mutex.unlock t.mu;
  n

(* Admission control is a single atomic decision under the lock: either
   the request takes a queue slot now, or the caller learns immediately
   that it must shed.  There is no blocking push — backpressure is a
   "busy" response, never a hang. *)
let try_push t v =
  Mutex.lock t.mu;
  let ok = (not t.closed) && Queue.length t.q < t.cap in
  if ok then begin
    Queue.push v t.q;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mu;
  if not ok then Atomic.incr t.shed;
  ok

(* Workers block here between requests.  After [close], the queue keeps
   handing out what was already admitted (so a drain can answer every
   admitted request, typically as cancelled) and returns [None] only
   once it is empty — the worker's signal to exit. *)
let pop t =
  Mutex.lock t.mu;
  let rec wait () =
    if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
    else if t.closed then None
    else begin
      Condition.wait t.nonempty t.mu;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock t.mu;
  r

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu
