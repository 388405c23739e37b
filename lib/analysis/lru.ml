type ('k, 'v) t = {
  cap : int;
  tbl : ('k, 'v * int ref) Hashtbl.t;
  mutable tick : int;
  mu : Mutex.t;
}

let create ~capacity () =
  { cap = max 1 capacity; tbl = Hashtbl.create 16; tick = 0; mu = Mutex.create () }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Eviction scans for the stalest entry — O(capacity), and capacity is
   small by construction (a handful of parsed model files), so a scan
   beats maintaining an intrusive recency list. *)
let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun k (_, stamp) acc ->
        match acc with
        | Some (_, best) when best <= !stamp -> acc
        | _ -> Some (k, !stamp))
      t.tbl None
  in
  match victim with Some (k, _) -> Hashtbl.remove t.tbl k | None -> ()

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some (v, stamp) ->
        t.tick <- t.tick + 1;
        stamp := t.tick;
        Some v
      | None -> None)

let add t k v =
  locked t (fun () ->
      if not (Hashtbl.mem t.tbl k) then begin
        if Hashtbl.length t.tbl >= t.cap then evict_oldest t;
        t.tick <- t.tick + 1;
        Hashtbl.replace t.tbl k (v, ref t.tick)
      end)

let find_or_add t k f =
  match find t k with
  | Some v -> v
  | None ->
    (* compute outside the lock: a slow [f] (a model parse) must not
       block concurrent lookups.  Two racing misses both compute; the
       second [add] is a no-op, which is harmless for a pure loader. *)
    let v = f k in
    add t k v;
    v
