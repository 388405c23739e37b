open Ta

(* Store keys digest this text, so its layout is part of the key schema
   (test/ref_print.ml pins it): a list comma (clocks, commit and urgent
   names, resets, assigns) is followed by a newline at the enclosing
   block's indentation, column 0 at top level and in a process body,
   column 2 inside a [trans] item. *)

let add = Buffer.add_string

let add_list b ~sep write = function
  | [] -> ()
  | first :: rest ->
    write b first;
    List.iter
      (fun x ->
        add b sep;
        write b x)
      rest

let write_state b (l : Model.location) =
  add b l.Model.loc_name;
  if l.Model.loc_inv <> [] then begin
    add b " { ";
    Clockcons.write b l.Model.loc_inv;
    add b " }"
  end

let write_kind_group b (a : Model.automaton) kw kind =
  match
    List.filter_map
      (fun (l : Model.location) ->
        if l.Model.loc_kind = kind then Some l.Model.loc_name else None)
      a.Model.aut_locations
  with
  | [] -> ()
  | names ->
    add b "  ";
    add b kw;
    add b " ";
    add_list b ~sep:",\n" add names;
    add b ";\n"

let write_update b (v, rhs) =
  add b v;
  add b " := ";
  Expr.write_expr b rhs

let write_trans b (e : Model.edge) =
  add b e.Model.edge_src;
  add b " -> ";
  add b e.Model.edge_dst;
  add b " {";
  if e.Model.edge_guard <> [] then begin
    add b " guard ";
    Clockcons.write b e.Model.edge_guard;
    add b ";"
  end;
  (match e.Model.edge_pred with
   | Expr.True -> ()
   | pred ->
     add b " when ";
     Expr.write_pred b pred;
     add b ";");
  (match e.Model.edge_sync with
   | Model.Tau -> ()
   | Model.Send c ->
     add b " sync ";
     add b c;
     add b "!;"
   | Model.Recv c ->
     add b " sync ";
     add b c;
     add b "?;");
  if e.Model.edge_resets <> [] then begin
    add b " reset ";
    add_list b ~sep:",\n  " add e.Model.edge_resets;
    add b ";"
  end;
  if e.Model.edge_updates <> [] then begin
    add b " assign ";
    add_list b ~sep:",\n  " write_update e.Model.edge_updates;
    add b ";"
  end;
  add b " }"

let write_process b (a : Model.automaton) =
  add b "process ";
  add b a.Model.aut_name;
  add b " {\n  state\n    ";
  add_list b ~sep:",\n    " write_state a.Model.aut_locations;
  add b ";\n";
  write_kind_group b a "commit" Model.Committed;
  write_kind_group b a "urgent" Model.Urgent;
  add b "  init ";
  add b a.Model.aut_initial;
  add b ";\n";
  if a.Model.aut_edges <> [] then begin
    add b "  trans\n    ";
    add_list b ~sep:",\n    " write_trans a.Model.aut_edges;
    add b ";\n"
  end;
  add b "}"

let to_string (net : Model.network) =
  let b = Buffer.create 4096 in
  add b "network ";
  add b net.Model.net_name;
  add b ";\n\n";
  if net.Model.net_clocks <> [] then begin
    add b "clock ";
    add_list b ~sep:",\n" add net.Model.net_clocks;
    add b ";\n"
  end;
  List.iter
    (fun (v, d) ->
      add b "int[";
      add b (string_of_int d.Model.var_min);
      add b ",";
      add b (string_of_int d.Model.var_max);
      add b "] ";
      add b v;
      add b " = ";
      add b (string_of_int d.Model.var_init);
      add b ";\n")
    net.Model.net_vars;
  List.iter
    (fun (c, kind) ->
      add b
        (match kind with Model.Binary -> "chan " | Model.Broadcast -> "broadcast chan ");
      add b c;
      add b ";\n")
    net.Model.net_channels;
  add b "\n";
  add_list b ~sep:"\n\n" write_process net.Model.net_automata;
  Buffer.contents b
