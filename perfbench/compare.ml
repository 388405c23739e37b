(* [bench.exe --compare A.json B.json]: two sets of runs (the LDJSON
   records --json appends, one per run), compared per workload and
   metric -- median and quartiles of each set, and whether B's median
   stays within the bound BENCHMARK.json fixes for that metric.  Exit 1
   when some end-to-end metric got worse by more than its bound. *)

open Common

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Store.Json.parse l with
         | Ok j -> j
         | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))

(* (workload, metric) -> values, in file order *)
let samples path =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun j ->
      let workload =
        Option.value ~default:"?" (Option.bind (Store.Json.member "workload" j) Store.Json.to_str)
      in
      match Store.Json.member "metrics" j with
      | Some (Store.Json.Obj ms) ->
        List.iter
          (fun (name, m) ->
            match Option.bind (Store.Json.member "value" m) Store.Json.to_float with
            | Some v ->
              let k = (workload, name) in
              if not (Hashtbl.mem tbl k) then order := k :: !order;
              Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
            | None -> ())
          ms
      | _ -> ())
    (read_lines path);
  (tbl, List.rev !order)

(* metric -> (better, bound) for the end-to-end metrics *)
let bounds () =
  match
    Store.Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
  with
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  | Ok j ->
    List.filter_map
      (fun m ->
        let str k = Option.bind (Store.Json.member k m) Store.Json.to_str in
        match (str "name", str "better", Option.bind (Store.Json.member "bound" m) Store.Json.to_float) with
        | Some n, Some b, Some bound -> Some (n, (b, bound))
        | _ -> None)
      (Option.value ~default:[]
         (Option.bind (Store.Json.member "end_to_end" j) Store.Json.to_list))

let run a b =
  let bounds = bounds () in
  let ta, order = samples a and tb, _ = samples b in
  let regressions = ref 0 in
  Printf.printf "%-12s %-21s %36s %36s  %s\n" "workload" "metric"
    "A: q1 / median / q3" "B: q1 / median / q3" "verdict";
  List.iter
    (fun ((w, m) as k) ->
      let va = Hashtbl.find ta k in
      match Hashtbl.find_opt tb k with
      | None -> Printf.printf "%-12s %-21s (missing in %s)\n" w m b
      | Some vb ->
        let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
        let verdict =
          match List.assoc_opt m bounds with
          | None -> "no bound (per-layer)"
          | Some (better, bound) ->
            let worse = if better = "lower" then (mb -. ma) /. ma else (ma -. mb) /. ma in
            if worse > bound then begin
              incr regressions;
              Printf.sprintf "B worse by %.1f%% (bound %.0f%%)" (100. *. worse) (100. *. bound)
            end
            else if -.worse > bound then
              Printf.sprintf "B better by %.1f%% (bound %.0f%%)" (-100. *. worse) (100. *. bound)
            else Printf.sprintf "agree within %.0f%%" (100. *. bound)
        in
        Printf.printf "%-12s %-21s %10.4g / %10.4g / %10.4g %10.4g / %10.4g / %10.4g  %s\n"
          w m qa1 ma qa3 qb1 mb qb3 verdict)
    order;
  if !regressions > 0 then 1 else 0
