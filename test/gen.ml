(* QCheck generators for random small networks of timed automata.

   The generated networks are "closed" (no strict comparisons), have
   small constants, and respect the static restrictions of the library
   (broadcast receive edges carry no clock guard), so that the
   discrete-time reference semantics of [Discrete] coincides with the
   dense-time zone semantics on location reachability. *)

open Ta

let clock_names = [ "gx"; "gy" ]
let max_const = 5

let gen_clock = QCheck.Gen.oneofl clock_names

let gen_guard_atom =
  let open QCheck.Gen in
  let* x = gen_clock in
  let* n = int_range 0 max_const in
  oneofl [ Clockcons.le x n; Clockcons.ge x n; Clockcons.eq_ x n ]

let gen_invariant =
  let open QCheck.Gen in
  frequency
    [ (3, return []);
      (2,
       let* x = gen_clock in
       let* n = int_range 1 max_const in
       return [ Clockcons.le x n ]) ]

let gen_resets =
  let open QCheck.Gen in
  frequency
    [ (2, return []);
      (1, map (fun c -> [ c ]) gen_clock);
      (1, return clock_names) ]

(* Location names L0..L{n-1}; pick kinds with a strong Normal bias.  At
   most one non-normal location per automaton keeps livelocks rare. *)
let gen_locations n =
  let open QCheck.Gen in
  let* special = int_range (-1) (n - 1) in
  let* kind = oneofl [ Model.Urgent; Model.Committed ] in
  let rec build i acc =
    if i >= n then return (List.rev acc)
    else
      let* inv = gen_invariant in
      let k = if i = special && i > 0 then kind else Model.Normal in
      build (i + 1) (Model.location ~kind:k ~inv (Fmt.str "L%d" i) :: acc)
  in
  build 0 []

let gen_sync ~role =
  let open QCheck.Gen in
  (* Channels: "bin" (binary) and "bc" (broadcast). *)
  match role with
  | `Sender ->
    oneofl [ Model.Tau; Model.Send "bin"; Model.Send "bc"; Model.Tau ]
  | `Receiver ->
    oneofl [ Model.Tau; Model.Recv "bin"; Model.Recv "bc"; Model.Tau ]

let gen_edge nlocs ~role =
  let open QCheck.Gen in
  let* src = int_range 0 (nlocs - 1) in
  let* dst = int_range 0 (nlocs - 1) in
  let* sync = gen_sync ~role in
  let* guard =
    match sync with
    | Model.Recv "bc" -> return []  (* static restriction *)
    | Model.Recv _ | Model.Send _ | Model.Tau ->
      frequency [ (2, return []); (2, map (fun a -> [ a ]) gen_guard_atom) ]
  in
  let* resets = gen_resets in
  return
    (Model.edge ~guard ~sync ~resets (Fmt.str "L%d" src) (Fmt.str "L%d" dst))

let gen_automaton ~name ~role =
  let open QCheck.Gen in
  let* nlocs = int_range 2 4 in
  let* locations = gen_locations nlocs in
  let* nedges = int_range 1 5 in
  let* edges = list_size (return nedges) (gen_edge nlocs ~role) in
  (* Urgent/committed locations with clock-guarded edges out of them often
     deadlock; that is fine for reachability comparison. *)
  return (Model.automaton ~name ~initial:"L0" locations edges)

let gen_network =
  let open QCheck.Gen in
  let* a = gen_automaton ~name:"A" ~role:`Sender in
  let* b = gen_automaton ~name:"B" ~role:`Receiver in
  return
    (Model.network ~name:"random" ~clocks:clock_names ~vars:[]
       ~channels:[ ("bin", Model.Binary); ("bc", Model.Broadcast) ]
       [ a; b ])

let arb_network =
  QCheck.make ~print:(Fmt.to_to_string Model.pp) gen_network

(* --- random DBMs ------------------------------------------------------ *)

(* A random zone is the zero zone driven through a short trail of ups,
   resets and constraints; the trail is kept so failures print nicely.
   Shared by the DBM unit tests and the inclusion/extrapolation property
   tests. *)

type dbm_op =
  | Op_up
  | Op_reset of int
  | Op_constrain of int * int * bool * int

let pp_dbm_op ppf = function
  | Op_up -> Fmt.string ppf "up"
  | Op_reset i -> Fmt.pf ppf "reset x%d" i
  | Op_constrain (i, j, strict, n) ->
    Fmt.pf ppf "x%d - x%d %s %d" i j (if strict then "<" else "<=") n

let dbm_dims = 4 (* 3 real clocks *)

(* A second, wider size: table1's largest zones (gpca-psm-mc: eight
   clocks and the reference) have this dimension. *)
let dbm_dims_wide = 9

let gen_dbm_op_at dims =
  let open QCheck.Gen in
  let clock = int_range 0 (dims - 1) in
  frequency
    [ (2, return Op_up);
      (2, map (fun i -> Op_reset i) (int_range 1 (dims - 1)));
      (5,
       map2
         (fun (i, j) (strict, n) -> Op_constrain (i, j, strict, n))
         (pair clock clock)
         (pair bool (int_range (-8) 8))) ]

let gen_dbm_op = gen_dbm_op_at dbm_dims

let dbm_bound strict n = if strict then Zone.Bound.lt n else Zone.Bound.le n

let apply_dbm_op z = function
  | Op_up -> Zone.Dbm.up z
  | Op_reset i -> Zone.Dbm.reset z i
  | Op_constrain (i, j, strict, n) ->
    if i <> j then Zone.Dbm.constrain z i j (dbm_bound strict n)

let build_dbm ops =
  let z = Zone.Dbm.zero dbm_dims in
  List.iter (apply_dbm_op z) ops;
  z

(* At the wide size a random trail empties most zones, and only
   non-empty ones reach extrapolation, so a constraint that would empty
   the zone is dropped instead. *)
let build_dbm_wide ops =
  let z = Zone.Dbm.zero dbm_dims_wide in
  List.iter
    (fun op ->
      match op with
      | Op_constrain (i, j, strict, n)
        when i <> j && not (Zone.Dbm.satisfiable z i j (dbm_bound strict n)) ->
        ()
      | Op_up | Op_reset _ | Op_constrain _ -> apply_dbm_op z op)
    ops;
  z

let arb_dbm_ops_at dims ~max_len =
  QCheck.make
    ~print:(Fmt.to_to_string Fmt.(list ~sep:semi pp_dbm_op))
    QCheck.Gen.(list_size (int_range 0 max_len) (gen_dbm_op_at dims))

let arb_dbm_ops = arb_dbm_ops_at dbm_dims ~max_len:10

(* Longer trails at the wide size, so that most of its clocks end up
   constrained. *)
let arb_dbm_ops_wide = arb_dbm_ops_at dbm_dims_wide ~max_len:40

(* Non-negative extrapolation ceilings, one per clock (index 0 fixed 0). *)
let arb_dbm_ceilings_at dims =
  QCheck.make
    ~print:(Fmt.to_to_string Fmt.(Dump.array int))
    QCheck.Gen.(
      map
        (fun l -> Array.of_list (0 :: l))
        (list_size (return (dims - 1)) (int_range 0 10)))

let arb_dbm_ceilings = arb_dbm_ceilings_at dbm_dims
