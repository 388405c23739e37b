(* Items are claimed by an atomic next-index counter; the first
   exception wins, parks in an atomic slot, drains the remaining items
   (workers stop claiming once a failure is recorded) and is re-raised
   on the caller's domain once every worker has returned.  The workers
   beside the caller are helper domains of [Mc.Park]. *)
let map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        match Atomic.get failure with
        | Some _ -> ()
        | None ->
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f arr.(i) with
             | r -> results.(i) <- Some r
             | exception exn ->
               ignore (Atomic.compare_and_set failure None (Some exn)));
            loop ()
          end
      in
      loop ()
    in
    Mc.Park.fork_join (Array.make (jobs - 1) worker) worker;
    (match Atomic.get failure with Some exn -> raise exn | None -> ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end
