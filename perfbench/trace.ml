(* The traced run's instruments.

   Coarse calls into a layer get a span: name, layer, start, end, the
   span that caused it, and a request id.  Spans are held in memory and
   written as LDJSON when the run ends.  Hot calls (one successor firing
   is microseconds) get aggregate timers instead; their totals are
   carved out of the enclosing span, so the ledger still attributes
   them.  A layer's self time is its spans' durations minus what their
   child spans and carve-outs cover.

   Spans are recorded from the main thread only: the client threads of
   the socket load record latencies, not spans. *)

open Common

type span = {
  id : int;
  name : string;
  layer : string;
  req : int;
  parent : int;
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let spans : span list ref = ref []
let carves : (int * string * int) list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span ?(req = -1) ~layer name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      { id = !next_id; name; layer; req; parent; start_ns = now_ns ();
        stop_ns = 0 }
    in
    incr next_id;
    spans := s :: !spans;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        stack := List.tl !stack)
      f
  end

(* Attribute [ns] of the current span's time to [layer]. *)
let carve ~layer ns =
  if !enabled then
    match !stack with p :: _ -> carves := (p, layer, ns) :: !carves | [] -> ()

type timer = { mutable ns : int; mutable calls : int }

let timer () = { ns = 0; calls = 0 }

let timed tm f =
  let t0 = now_ns () in
  let r = f () in
  tm.ns <- tm.ns + (now_ns () - t0);
  tm.calls <- tm.calls + 1;
  r

(* Self time per layer in ms, largest first, and the share of the root
   spans' wall time that layers other than the harness ("bench")
   account for. *)
let ledger () =
  let dur s = s.stop_ns - s.start_ns in
  let covered = Hashtbl.create 256 in
  let cover id ns =
    Hashtbl.replace covered id
      (ns + Option.value ~default:0 (Hashtbl.find_opt covered id))
  in
  List.iter (fun s -> if s.parent >= 0 then cover s.parent (dur s)) !spans;
  List.iter (fun (p, _, ns) -> cover p ns) !carves;
  let self = Hashtbl.create 16 in
  let add layer ns =
    Hashtbl.replace self layer
      (ns + Option.value ~default:0 (Hashtbl.find_opt self layer))
  in
  List.iter
    (fun s ->
      add s.layer (dur s - Option.value ~default:0 (Hashtbl.find_opt covered s.id)))
    !spans;
  List.iter (fun (_, layer, ns) -> add layer ns) !carves;
  let rows =
    Hashtbl.fold (fun l ns acc -> (l, ms_of_ns ns) :: acc) self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let root_ms =
    List.fold_left
      (fun acc s -> if s.parent < 0 then acc +. ms_of_ns (dur s) else acc)
      0. !spans
  in
  let layer_ms =
    List.fold_left
      (fun acc (l, ms) -> if l = "bench" then acc else acc +. ms)
      0. rows
  in
  (rows, if root_ms > 0. then layer_ms /. root_ms else 0.)

let write_spans path =
  let all = List.rev !spans in
  let origin = match all with s :: _ -> s.start_ns | [] -> 0 in
  let us ns = (ns - origin) / 1000 in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Store.Json.to_string
           (Store.Json.Obj
              [ ("id", Store.Json.Int s.id);
                ("name", Store.Json.String s.name);
                ("layer", Store.Json.String s.layer);
                ("req", Store.Json.Int s.req);
                ("parent", Store.Json.Int s.parent);
                ("start_us", Store.Json.Int (us s.start_ns));
                ("end_us", Store.Json.Int (us s.stop_ns)) ]));
      output_char oc '\n')
    all;
  close_out oc
