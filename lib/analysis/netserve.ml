(* The socket front end of [psv serve]: one event-loop domain owns
   every file descriptor and every connection record; a pool of worker
   domains owns nothing but the admission queue and a completion
   queue.  Workers never touch a socket, so a stalled or vanished
   client can never pin a worker — the worst a hostile client can do
   is occupy one connection slot until a deadline reaps it. *)

type addr = Tcp of string * int | Unix_path of string

type config = {
  ns_addr : addr;
  ns_serve : Serve.config;
  ns_queue : int;
  ns_max_conns : int;
  ns_max_inflight : int;
  ns_read_deadline_s : float;
  ns_max_out_bytes : int;
}

let default_config =
  { ns_addr = Tcp ("127.0.0.1", 0);
    ns_serve = Serve.default_config;
    ns_queue = 64;
    ns_max_conns = 64;
    ns_max_inflight = 16;
    ns_read_deadline_s = 10.;
    ns_max_out_bytes = 64 * 1024 * 1024 }

type stop = Drained | Error_limit

type outcome = {
  no_served : int;
  no_errors : int;
  no_shed : int;
  no_conns : int;
  no_stop : stop;
}

(* Per-connection state.  Event-loop-private: no field is ever touched
   by a worker domain, so none of it needs a lock. *)
type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;  (* partial request line *)
  mutable c_dropping : bool;  (* over-long line: discard to newline *)
  mutable c_last_data : float;  (* read-deadline base *)
  mutable c_eof : bool;  (* no more reads *)
  mutable c_closing : bool;  (* close once output drains *)
  mutable c_dead : bool;  (* reap immediately, drop output *)
  mutable c_inflight : int;  (* admitted jobs not yet routed back *)
  c_outq : string Queue.t;
  mutable c_sent : int;  (* bytes of the head chunk already written *)
  mutable c_out_bytes : int;  (* total queued output *)
}

(* What the event loop admits for a worker. *)
type job = { j_conn : int; j_item : Serve.prepared; j_t0 : float }

let set_nonblock fd = Unix.set_nonblock fd

let bind_listener addr =
  match addr with
  | Unix_path path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       if Sys.file_exists path then Unix.unlink path;
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64;
       set_nonblock fd;
       Ok fd
     with
    | Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Printf.sprintf "cannot listen on unix:%s: %s" path
               (Unix.error_message e))
    | Sys_error msg -> Unix.close fd; Error msg)
  | Tcp (host, port) -> (
    match
      if host = "" || host = "*" then Ok Unix.inet_addr_any
      else
        try Ok (Unix.inet_addr_of_string host)
        with Failure _ -> (
          try Ok (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found | Invalid_argument _ ->
            Error (Printf.sprintf "cannot resolve host %S" host))
    with
    | Error msg -> Error msg
    | Ok ip -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (ip, port));
        Unix.listen fd 64;
        set_nonblock fd;
        Ok fd
      with Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Printf.sprintf "cannot listen on %s:%d: %s" host port
                 (Unix.error_message e))))

let listen cfg ?cache ?drain:dtoken ?on_ready ~load_model () =
  match bind_listener cfg.ns_addr with
  | Error _ as e -> e
  | Ok listener ->
    (* A write to a vanished client must be an error, not a signal. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let drain =
      match dtoken with Some d -> d | None -> Serve.drain ()
    in
    let scfg = cfg.ns_serve in
    let jobs = max 1 scfg.Serve.sv_jobs in
    let metrics = Metrics.create () in
    let queue : job Admission.t = Admission.create ~capacity:cfg.ns_queue () in
    (* Completions flow worker -> event loop through this queue; the
       byte written to [wake_wr] interrupts the select so a finished
       request reaches its client immediately, not at the next tick. *)
    let completions : (int * string * bool) Queue.t = Queue.create () in
    let comp_mu = Mutex.create () in
    let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
    set_nonblock wake_rd;
    set_nonblock wake_wr;
    let wake () =
      try ignore (Unix.write_substring wake_wr "x" 0 1)
      with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()
    in
    let workers_done = Atomic.make 0 in
    let worker () =
      let rec go () =
        match Admission.pop queue with
        | None ->
          Atomic.incr workers_done;
          wake ()
        | Some j ->
          let reply = Serve.evaluate scfg ?cache ~drain j.j_item in
          let doc, is_err = Serve.reply_json ?cache reply in
          Metrics.record metrics (1000. *. (Unix.gettimeofday () -. j.j_t0));
          Mutex.lock comp_mu;
          Queue.push (j.j_conn, Store.Json.to_string doc, is_err) completions;
          Mutex.unlock comp_mu;
          wake ();
          go ()
      in
      go ()
    in
    let workers = List.init jobs (fun _ -> Domain.spawn worker) in
    let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
    let next_id = ref 0 in
    let conns_total = ref 0 in
    let shed_inflight = ref 0 in
    let stop_reason = ref Drained in
    let listener_open = ref true in
    let shutdown_t0 = ref nan in
    let over_error_limit () =
      match scfg.Serve.sv_max_errors with
      | None -> false
      | Some m -> Metrics.errors metrics > m
    in
    let gauges () =
      { Metrics.g_queue_depth = Admission.depth queue;
        g_queue_capacity = Admission.capacity queue;
        g_shed = Admission.shed queue;
        g_conns_active = Hashtbl.length conns;
        g_conns_total = !conns_total }
    in
    let stats_json () = Metrics.to_json metrics ?cache ~gauges:(gauges ()) () in
    (* Everything the server says to a client funnels through here. *)
    let send conn doc is_err =
      if not conn.c_dead then begin
        let line = doc ^ "\n" in
        Queue.push line conn.c_outq;
        conn.c_out_bytes <- conn.c_out_bytes + String.length line;
        (* A reader that never drains its side cannot hold unbounded
           server memory: past the cap the connection is dropped. *)
        if conn.c_out_bytes > cfg.ns_max_out_bytes then conn.c_dead <- true
      end;
      Metrics.incr_answered metrics;
      if is_err then begin
        Metrics.incr_errors metrics;
        if over_error_limit () then begin
          stop_reason := Error_limit;
          Serve.request_drain drain
        end
      end
    in
    let handle_line id conn line =
      let line = String.trim line in
      if line <> "" then begin
        Metrics.incr_received metrics;
        let t0 = Unix.gettimeofday () in
        match Serve.prepare scfg ?cache ~load_model line with
        | `Run ri as item ->
          (* Per-client fairness: one connection may only occupy a
             bounded share of the admission queue.  Past its cap the
             client gets the same diagnosed busy frame a full queue
             would produce — other clients' slots stay reachable. *)
          if conn.c_inflight >= cfg.ns_max_inflight then begin
            incr shed_inflight;
            Metrics.incr_busy metrics;
            send conn
              (Store.Json.to_string
                 (Serve.busy_json ?cache
                    ~reason:
                      "server busy: per-connection in-flight limit reached"
                    ri.Serve.ri_id))
              false
          end
          else if
            Admission.try_push queue { j_conn = id; j_item = item; j_t0 = t0 }
          then conn.c_inflight <- conn.c_inflight + 1
          else begin
            Metrics.incr_busy metrics;
            send conn
              (Store.Json.to_string
                 (Serve.busy_json ?cache ri.Serve.ri_id))
              false
          end
        | (`Err _ | `Hit _ | `Stats _) as item ->
          (* Cache hits, immediate errors and stats frames are answered
             on the event loop: no queue slot, no worker, microseconds
             of latency. *)
          let reply = Serve.evaluate scfg ?cache ~drain item in
          let doc, is_err = Serve.reply_json ?cache ~stats_json reply in
          Metrics.record metrics (1000. *. (Unix.gettimeofday () -. t0));
          send conn (Store.Json.to_string doc) is_err
      end
    in
    let feed id conn bytes n =
      let cap = scfg.Serve.sv_max_request_bytes in
      for i = 0 to n - 1 do
        match Bytes.get bytes i with
        | '\n' ->
          let line = Buffer.contents conn.c_buf in
          Buffer.clear conn.c_buf;
          conn.c_dropping <- false;
          handle_line id conn line
        | c ->
          if not conn.c_dropping then
            if Buffer.length conn.c_buf > cap then conn.c_dropping <- true
              (* the cap+1 bytes kept are enough for the line validator
                 to reject the request as over-long; the rest of the
                 line is discarded, holding memory bounded *)
            else Buffer.add_char conn.c_buf c
      done
    in
    let read_conn id conn =
      let buf = Bytes.create 65536 in
      let rec go () =
        match Unix.read conn.c_fd buf 0 (Bytes.length buf) with
        | 0 -> conn.c_eof <- true
        | n ->
          conn.c_last_data <- Unix.gettimeofday ();
          feed id conn buf n;
          if not conn.c_dead then go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
          conn.c_dead <- true
      in
      go ()
    in
    let flush_conn conn =
      let rec go () =
        if (not conn.c_dead) && not (Queue.is_empty conn.c_outq) then begin
          let chunk = Queue.peek conn.c_outq in
          let len = String.length chunk - conn.c_sent in
          match Unix.write_substring conn.c_fd chunk conn.c_sent len with
          | n ->
            if n = len then begin
              ignore (Queue.pop conn.c_outq);
              conn.c_out_bytes <- conn.c_out_bytes - String.length chunk;
              conn.c_sent <- 0;
              go ()
            end
            else conn.c_sent <- conn.c_sent + n
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
            ->
            ()
          | exception
              Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _)
            ->
            conn.c_dead <- true
        end
      in
      go ()
    in
    let accept_conns () =
      let rec go () =
        match Unix.accept ~cloexec:true listener with
        | fd, _peer ->
          set_nonblock fd;
          (match cfg.ns_addr with
          | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true
                       with Unix.Unix_error _ -> ())
          | Unix_path _ -> ());
          incr next_id;
          incr conns_total;
          let conn =
            { c_fd = fd;
              c_buf = Buffer.create 256;
              c_dropping = false;
              c_last_data = Unix.gettimeofday ();
              c_eof = false;
              c_closing = false;
              c_dead = false;
              c_inflight = 0;
              c_outq = Queue.create ();
              c_sent = 0;
              c_out_bytes = 0 }
          in
          Hashtbl.replace conns !next_id conn;
          (* Over the connection cap the client still gets an answer —
             a busy frame and an orderly close, never a silent reset. *)
          if Hashtbl.length conns > cfg.ns_max_conns then begin
            Metrics.incr_busy metrics;
            send conn
              (Store.Json.to_string
                 (Serve.busy_json ?cache
                    ~reason:"server busy: connection limit reached" Null))
              false;
            conn.c_eof <- true;
            conn.c_closing <- true
          end;
          go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          ()
        | exception Unix.Unix_error (_, _, _) -> ()
      in
      go ()
    in
    let route_completions () =
      Mutex.lock comp_mu;
      let pending = Queue.create () in
      Queue.transfer completions pending;
      Mutex.unlock comp_mu;
      Queue.iter
        (fun (id, doc, is_err) ->
          match Hashtbl.find_opt conns id with
          | None ->
            (* client vanished mid-evaluation; the verdict still counts *)
            Metrics.incr_answered metrics;
            if is_err then Metrics.incr_errors metrics
          | Some conn ->
            conn.c_inflight <- conn.c_inflight - 1;
            send conn doc is_err)
        pending
    in
    let begin_shutdown () =
      if Float.is_nan !shutdown_t0 then begin
        shutdown_t0 := Unix.gettimeofday ();
        if !listener_open then begin
          listener_open := false;
          (try Unix.close listener with Unix.Unix_error _ -> ())
        end;
        (* Stop reading: admitted work is answered (cancelled work as
           unknown/cancelled), half-typed requests are abandoned. *)
        Hashtbl.iter (fun _ c -> c.c_eof <- true) conns;
        Admission.close queue
      end
    in
    let drain_wake () =
      let buf = Bytes.create 512 in
      let rec go () =
        match Unix.read wake_rd buf 0 512 with
        | 0 -> ()
        | _ -> go ()
        | exception Unix.Unix_error _ -> ()
      in
      go ()
    in
    let reap () =
      let dead = ref [] in
      Hashtbl.iter
        (fun id c ->
          let finished =
            (c.c_eof || c.c_closing)
            && c.c_inflight = 0
            && Queue.is_empty c.c_outq
          in
          if c.c_dead || finished then dead := (id, c) :: !dead)
        conns;
      List.iter
        (fun (id, c) ->
          (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
          Hashtbl.remove conns id)
        !dead
    in
    (match on_ready with
    | None -> ()
    | Some f -> f (Unix.getsockname listener));
    let rec loop () =
      if Serve.draining drain then begin_shutdown ();
      let shutting_down = not (Float.is_nan !shutdown_t0) in
      let reads =
        let base = [ wake_rd ] in
        let base =
          if !listener_open && not shutting_down then listener :: base
          else base
        in
        Hashtbl.fold
          (fun _ c acc ->
            if (not c.c_eof) && not c.c_dead then c.c_fd :: acc else acc)
          conns base
      in
      let writes =
        Hashtbl.fold
          (fun _ c acc ->
            if (not c.c_dead) && not (Queue.is_empty c.c_outq) then
              c.c_fd :: acc
            else acc)
          conns []
      in
      let rd, wr, _ =
        try Unix.select reads writes [] 0.05
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      if List.memq wake_rd rd then drain_wake ();
      route_completions ();
      if !listener_open && List.memq listener rd then accept_conns ();
      Hashtbl.iter
        (fun id c -> if List.memq c.c_fd rd then read_conn id c)
        conns;
      (* completions may have landed while we were reading *)
      route_completions ();
      (* A half-received request line that stops making progress is a
         slowloris; past the deadline it gets a diagnosed error frame
         and the connection is retired. *)
      let now = Unix.gettimeofday () in
      Hashtbl.iter
        (fun _ c ->
          if
            (not c.c_eof) && (not c.c_dead)
            && (Buffer.length c.c_buf > 0 || c.c_dropping)
            && now -. c.c_last_data > cfg.ns_read_deadline_s
          then begin
            let doc, is_err =
              Serve.reply_json ?cache
                (`Err
                  ( Store.Json.Null,
                    Printf.sprintf
                      "read deadline exceeded (%.3gs): partial request line \
                       dropped"
                      cfg.ns_read_deadline_s,
                    None ))
            in
            send c (Store.Json.to_string doc) is_err;
            c.c_eof <- true;
            c.c_closing <- true
          end)
        conns;
      (* Eager flush: answers leave on the tick that produced them;
         [wr] from the select only matters for partially-written
         chunks, and those are retried here too. *)
      ignore wr;
      Hashtbl.iter (fun _ c -> flush_conn c) conns;
      reap ();
      if Serve.draining drain then begin_shutdown ();
      let shutting_down = not (Float.is_nan !shutdown_t0) in
      if
        shutting_down
        && Atomic.get workers_done = jobs
        && (Hashtbl.length conns = 0
           || Unix.gettimeofday () -. !shutdown_t0 > 5.0)
      then ()
      else loop ()
    in
    Fun.protect
      ~finally:(fun () ->
        if !listener_open then (
          try Unix.close listener with Unix.Unix_error _ -> ());
        Hashtbl.iter
          (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
          conns;
        Hashtbl.reset conns;
        Admission.close queue;
        List.iter Domain.join workers;
        (try Unix.close wake_rd with Unix.Unix_error _ -> ());
        (try Unix.close wake_wr with Unix.Unix_error _ -> ());
        match cfg.ns_addr with
        | Unix_path p -> ( try Unix.unlink p with _ -> ())
        | Tcp _ -> ())
      (fun () ->
        loop ();
        Ok
          { no_served = Metrics.answered metrics;
            no_errors = Metrics.errors metrics;
            no_shed = Admission.shed queue + !shed_inflight;
            no_conns = !conns_total;
            no_stop = !stop_reason })
