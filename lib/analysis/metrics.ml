type t = {
  m_now : unit -> float;
  m_start : float;
  m_received : int Atomic.t;
  m_answered : int Atomic.t;
  m_errors : int Atomic.t;
  m_busy : int Atomic.t;
  (* latency ring: the last [Array.length m_ring] request latencies in
     milliseconds.  A mutex guards index + slots; recording is a few
     nanoseconds of critical section, far below the cost of the request
     it measures. *)
  m_ring : float array;
  m_count : int ref;
  m_mu : Mutex.t;
}

let ring_size = 1024

let create ?(now = Unix.gettimeofday) () =
  { m_now = now;
    m_start = now ();
    m_received = Atomic.make 0;
    m_answered = Atomic.make 0;
    m_errors = Atomic.make 0;
    m_busy = Atomic.make 0;
    m_ring = Array.make ring_size 0.;
    m_count = ref 0;
    m_mu = Mutex.create () }

let incr_received t = Atomic.incr t.m_received
let incr_answered t = Atomic.incr t.m_answered
let incr_errors t = Atomic.incr t.m_errors
let incr_busy t = Atomic.incr t.m_busy

let received t = Atomic.get t.m_received
let answered t = Atomic.get t.m_answered
let errors t = Atomic.get t.m_errors
let busy t = Atomic.get t.m_busy

let record t ms =
  Mutex.lock t.m_mu;
  t.m_ring.(!(t.m_count) mod Array.length t.m_ring) <- ms;
  incr t.m_count;
  Mutex.unlock t.m_mu

(* Nearest-rank percentile over the retained window.  The copy is at
   most the ring size, taken under the lock; the sort happens outside
   it. *)
let snapshot t =
  Mutex.lock t.m_mu;
  let n = min !(t.m_count) (Array.length t.m_ring) in
  let copy = Array.sub t.m_ring 0 n in
  let total = !(t.m_count) in
  Mutex.unlock t.m_mu;
  Array.sort compare copy;
  (copy, total)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) i))

type gauges = {
  g_queue_depth : int;
  g_queue_capacity : int;
  g_shed : int;
  g_conns_active : int;
  g_conns_total : int;
}

(* round to 1/1000 ms so stats frames stay compact and stable-width *)
let ms v = Store.Json.Float (Float.round (v *. 1000.) /. 1000.)

let to_json t ?cache ?gauges () =
  let open Store.Json in
  let sorted, total = snapshot t in
  let latency =
    if Array.length sorted = 0 then [ ("count", Int 0) ]
    else
      [ ("count", Int total);
        ("p50", ms (percentile sorted 0.50));
        ("p90", ms (percentile sorted 0.90));
        ("p99", ms (percentile sorted 0.99)) ]
  in
  let base =
    [ ("uptime_s", ms (t.m_now () -. t.m_start));
      ( "requests",
        Obj
          [ ("received", Int (received t));
            ("answered", Int (answered t));
            ("errors", Int (errors t));
            ("busy", Int (busy t)) ] );
      ("latency_ms", Obj latency) ]
  in
  let base =
    match gauges with
    | None -> base
    | Some g ->
      base
      @ [ ( "queue",
            Obj
              [ ("depth", Int g.g_queue_depth);
                ("capacity", Int g.g_queue_capacity);
                ("shed", Int g.g_shed) ] );
          ( "connections",
            Obj
              [ ("active", Int g.g_conns_active);
                ("total", Int g.g_conns_total) ] ) ]
  in
  let base =
    match cache with
    | None -> base
    | Some c -> base @ [ ("cache", Qcache.stats_json c) ]
  in
  Obj base
