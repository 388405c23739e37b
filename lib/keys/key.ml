(* Bump the schema string whenever anything that feeds the digest
   changes meaning: old store entries then miss instead of aliasing. *)
let schema = "psv-key-v1"

(* The builder after the schema and the printed network, kept for the
   last network keyed on each domain.  A server asks many queries of
   one loaded network, and printing it is about half a key's cost.
   Networks are immutable, so physical identity is a sound memo key;
   the memo holds on to one network per domain. *)
let last : (Ta.Model.network * D128.builder) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let network_prefix net =
  match Domain.DLS.get last with
  | Some (n, st) when n == net -> D128.copy st
  | _ ->
    let st = D128.builder () in
    D128.add_string st schema;
    D128.add_string st (Xta.Print.to_string net);
    Domain.DLS.set last (Some (net, D128.copy st));
    st

let network_digest net = D128.value (network_prefix net)

let digest ~query net =
  let st = network_prefix net in
  D128.add_string st query;
  (* three schema constants: psv-key-v1 has always ended with them *)
  D128.add_bool st true;
  D128.add_bool st true;
  D128.add_bool st true;
  D128.value st

(* --- psv-key-v2: per-automaton manifest ------------------------------- *)

let schema_v2 = "psv-key-v2"

type manifest = {
  mf_decls : D128.t;
  mf_automata : (string * D128.t) list;
}

let decls_digest net =
  let st = D128.builder () in
  D128.add_string st schema_v2;
  D128.add_string st "decls";
  D128.add_string st net.Ta.Model.net_name;
  D128.add_int st (List.length net.Ta.Model.net_clocks);
  List.iter (D128.add_string st) net.Ta.Model.net_clocks;
  D128.add_int st (List.length net.Ta.Model.net_vars);
  List.iter
    (fun (name, vd) ->
      D128.add_string st name;
      D128.add_int st vd.Ta.Model.var_init;
      D128.add_int st vd.Ta.Model.var_min;
      D128.add_int st vd.Ta.Model.var_max)
    net.Ta.Model.net_vars;
  D128.add_int st (List.length net.Ta.Model.net_channels);
  List.iter
    (fun (name, kind) ->
      D128.add_string st name;
      D128.add_bool st (kind = Ta.Model.Broadcast))
    net.Ta.Model.net_channels;
  D128.value st

let automaton_digest a =
  let st = D128.builder () in
  D128.add_string st schema_v2;
  D128.add_string st "automaton";
  D128.add_string st (Format.asprintf "%a" Ta.Model.pp_automaton a);
  D128.value st

let manifest net =
  {
    mf_decls = decls_digest net;
    mf_automata =
      List.map
        (fun a -> (a.Ta.Model.aut_name, automaton_digest a))
        net.Ta.Model.net_automata;
  }

let manifest_digest m =
  let st = D128.builder () in
  D128.add_string st schema_v2;
  D128.add_string st (D128.to_hex m.mf_decls);
  D128.add_int st (List.length m.mf_automata);
  List.iter
    (fun (name, d) ->
      D128.add_string st name;
      D128.add_string st (D128.to_hex d))
    m.mf_automata;
  D128.value st

let manifest_equal a b =
  D128.equal a.mf_decls b.mf_decls
  && List.length a.mf_automata = List.length b.mf_automata
  && List.for_all2
       (fun (n1, d1) (n2, d2) -> String.equal n1 n2 && D128.equal d1 d2)
       a.mf_automata b.mf_automata
