(* Cross-validation of the zone-based explorer against the independent
   discrete-time reference semantics of [Discrete]: on random closed
   networks, both must reach exactly the same location vectors.

   This is the strongest correctness evidence for the model checker: the
   two implementations share the transition-enumeration conventions but
   nothing of the timing machinery (zones + extrapolation + activity
   reduction vs. concrete unit-step valuations). *)


let zone_reachable_locations net =
  let t = Mc.Explorer.make net in
  let seen = Hashtbl.create 64 in
  (* enumerate by running reachability with an always-false predicate and
     a collecting side effect *)
  let collect st =
    Hashtbl.replace seen (Array.to_list st.Mc.Explorer.st_locs) ();
    false
  in
  ignore (Mc.Explorer.reachable t collect);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let prop_agrees ~reduce_label ~make_explorer =
  QCheck.Test.make
    ~name:
      (Fmt.str "zone explorer agrees with discrete semantics (%s)"
         reduce_label)
    ~count:150 Gen.arb_network
    (fun net ->
      match Discrete.reachable_locations net with
      | None -> QCheck.assume_fail ()  (* state space too large; skip *)
      | Some reference ->
        let t = make_explorer net in
        let seen = Hashtbl.create 64 in
        let collect st =
          Hashtbl.replace seen (Array.to_list st.Mc.Explorer.st_locs) ();
          false
        in
        ignore (Mc.Explorer.reachable t collect);
        let zones =
          List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
        in
        if zones = reference then true
        else
          QCheck.Test.fail_reportf
            "reachable location sets differ@.zone: %a@.discrete: %a"
            Fmt.(Dump.list (Dump.list int))
            zones
            Fmt.(Dump.list (Dump.list int))
            reference)

let prop_zone_vs_discrete =
  prop_agrees ~reduce_label:"with activity reduction"
    ~make_explorer:(fun net -> Mc.Explorer.make net)

let prop_zone_vs_discrete_noreduce =
  prop_agrees ~reduce_label:"without reduction"
    ~make_explorer:(fun net -> Mc.Explorer.make ~reduce:false net)

let prop_reduction_invariant =
  QCheck.Test.make
    ~name:"activity reduction does not change reachable locations"
    ~count:150 Gen.arb_network
    (fun net ->
      zone_reachable_locations net
      = (let t = Mc.Explorer.make ~reduce:false net in
         let seen = Hashtbl.create 64 in
         let collect st =
           Hashtbl.replace seen (Array.to_list st.Mc.Explorer.st_locs) ();
           false
         in
         ignore (Mc.Explorer.reachable t collect);
         List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])))

let prop_tight_invariant =
  QCheck.Test.make
    ~name:"tight extrapolation does not change reachable locations"
    ~count:100 Gen.arb_network
    (fun net ->
      zone_reachable_locations net
      = (let t = Mc.Explorer.make ~tight:true net in
         let seen = Hashtbl.create 64 in
         let collect st =
           Hashtbl.replace seen (Array.to_list st.Mc.Explorer.st_locs) ();
           false
         in
         ignore (Mc.Explorer.reachable t collect);
         List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])))

let suite =
  [ QCheck_alcotest.to_alcotest prop_zone_vs_discrete;
    QCheck_alcotest.to_alcotest prop_zone_vs_discrete_noreduce;
    QCheck_alcotest.to_alcotest prop_reduction_invariant;
    QCheck_alcotest.to_alcotest prop_tight_invariant ]
