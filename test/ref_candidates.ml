(* Reference model of Mc.Explorer.candidates: the closure-based
   enumeration the sequential search's candidate order was defined by,
   kept as it stood (edge tables built the way [Explorer.make] builds
   them, [Array.iter]/[List.iter] over local closures, broadcast
   receivers through [cartesian]).  The explorer's loop version must
   produce the same candidates in the same order: the order fixes which
   successor is stored first, hence visited/stored counts and snapshot
   bytes.  A candidate is reported as its movers, [(automaton,
   ce_index)] in update order, and its channel. *)

open Ta

type tables = {
  comp : Compiled.t;
  taus : Compiled.cedge array array array;
  sends : Compiled.cedge array array array array;
  recvs : Compiled.cedge array array array array;
}

let tables comp =
  let nchans = Array.length comp.Compiled.c_chan_names in
  let table select =
    Array.map
      (fun a ->
        Array.map
          (fun edges ->
            let by_chan = Array.make nchans [] in
            List.iter
              (fun ce ->
                match select ce.Compiled.ce_sync with
                | Some ch -> by_chan.(ch) <- ce :: by_chan.(ch)
                | None -> ())
              edges;
            Array.map (fun l -> Array.of_list (List.rev l)) by_chan)
          a.Compiled.ca_out)
      comp.Compiled.c_automata
  in
  let taus =
    Array.map
      (fun a ->
        Array.map
          (fun edges ->
            Array.of_list
              (List.filter
                 (fun ce -> ce.Compiled.ce_sync = Compiled.CTau)
                 edges))
          a.Compiled.ca_out)
      comp.Compiled.c_automata
  in
  { comp;
    taus;
    sends = table (function Compiled.CSend ch -> Some ch | _ -> None);
    recvs = table (function Compiled.CRecv ch -> Some ch | _ -> None) }

let loc_kind t ai li =
  t.comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_kind

let committed_present t locs =
  let n = Array.length locs in
  let rec loop ai =
    ai < n
    && (loc_kind t ai locs.(ai) = Model.Committed || loop (ai + 1))
  in
  loop 0

let cartesian choice_lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    choice_lists
    [ [] ]

let candidates t (st : Mc.Explorer.state) =
  let comp = t.comp in
  let nauts = Array.length comp.Compiled.c_automata in
  let com = committed_present t st.st_locs in
  let allowed movers =
    (not com)
    || List.exists
         (fun (ai, ce) -> loc_kind t ai ce.Compiled.ce_src = Model.Committed)
         movers
  in
  let acc = ref [] in
  let add movers chan =
    let cd =
      (List.map (fun (ai, ce) -> (ai, ce.Compiled.ce_index)) movers, chan)
    in
    if allowed movers then acc := cd :: !acc
  in
  let enabled ce = ce.Compiled.ce_pred st.st_vars in
  for ai = 0 to nauts - 1 do
    Array.iter
      (fun ce -> if enabled ce then add [ (ai, ce) ] None)
      t.taus.(ai).(st.st_locs.(ai))
  done;
  let nchans = Array.length comp.Compiled.c_chan_kinds in
  for ch = 0 to nchans - 1 do
    let senders = ref [] in
    for ai = nauts - 1 downto 0 do
      Array.iter
        (fun ce -> if enabled ce then senders := (ai, ce) :: !senders)
        t.sends.(ai).(st.st_locs.(ai)).(ch)
    done;
    if !senders <> [] then begin
      match comp.Compiled.c_chan_kinds.(ch) with
      | Model.Binary ->
        let receivers = ref [] in
        for ai = nauts - 1 downto 0 do
          Array.iter
            (fun ce -> if enabled ce then receivers := (ai, ce) :: !receivers)
            t.recvs.(ai).(st.st_locs.(ai)).(ch)
        done;
        List.iter
          (fun (sa, se) ->
            List.iter
              (fun (ra, re) ->
                if sa <> ra then add [ (sa, se); (ra, re) ] (Some ch))
              !receivers)
          !senders
      | Model.Broadcast ->
        let recv_choices sa =
          let per_aut = ref [] in
          for ai = nauts - 1 downto 0 do
            if ai <> sa then begin
              let edges =
                Array.fold_right
                  (fun ce acc -> if enabled ce then (ai, ce) :: acc else acc)
                  t.recvs.(ai).(st.st_locs.(ai)).(ch)
                  []
              in
              if edges <> [] then per_aut := edges :: !per_aut
            end
          done;
          !per_aut
        in
        List.iter
          (fun (sa, se) ->
            let combos = cartesian (recv_choices sa) in
            List.iter
              (fun receivers -> add ((sa, se) :: receivers) (Some ch))
              combos)
          !senders
    end
  done;
  List.rev !acc
