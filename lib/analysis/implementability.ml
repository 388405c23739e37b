open Ta

type window_warning = {
  ww_edge : string;
  ww_clock : string;
  ww_window : int;
  ww_needed : int;
}

let lower_bound_of_guard clock atoms =
  List.fold_left
    (fun acc atom ->
      match atom with
      | Clockcons.Simple (x, (Clockcons.Ge | Clockcons.Gt | Clockcons.Eq), n)
        when x = clock ->
        Some (match acc with Some m -> max m n | None -> n)
      | Clockcons.Simple _ | Clockcons.Diff _ -> acc)
    None atoms

let upper_bound_of_inv clock atoms =
  List.fold_left
    (fun acc atom ->
      match atom with
      | Clockcons.Simple (x, (Clockcons.Le | Clockcons.Lt | Clockcons.Eq), n)
        when x = clock ->
        Some (match acc with Some m -> min m n | None -> n)
      | Clockcons.Simple _ | Clockcons.Diff _ -> acc)
    None atoms

let check_window_widths (psm : Transform.psm) =
  let scheme = psm.Transform.psm_scheme in
  let needed =
    (match scheme.Scheme.is_invocation with
     | Scheme.Periodic period -> period
     | Scheme.Aperiodic gap -> gap)
    + scheme.Scheme.is_exec.Scheme.wcet_max
  in
  let software = Transform.Pim.software psm.Transform.psm_pim in
  let warn_edge (e : Model.edge) =
    let clocks = Clockcons.clocks e.Model.edge_guard in
    List.filter_map
      (fun clock ->
        match lower_bound_of_guard clock e.Model.edge_guard with
        | None -> None
        | Some lo ->
          let src = Model.find_location software e.Model.edge_src in
          (match upper_bound_of_inv clock src.Model.loc_inv with
           | None -> None
           | Some hi ->
             let window = hi - lo in
             if window < needed then
               Some
                 { ww_edge =
                     Fmt.str "%s -> %s" e.Model.edge_src e.Model.edge_dst;
                   ww_clock = clock;
                   ww_window = window;
                   ww_needed = needed }
             else None))
      clocks
  in
  List.concat_map warn_edge software.Model.aut_edges

let find_timelock ?limit (psm : Transform.psm) =
  let t = Mc.Explorer.make ?limit psm.Transform.psm_net in
  (Mc.Explorer.find_timelock t).Mc.Explorer.r_trace
