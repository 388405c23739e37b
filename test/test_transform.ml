(* Tests for the PIM->PSM transformation: modularity (the software and
   environment automata are preserved), the generated interface automata
   for each mechanism of Section III, and behavioral sanity of the
   transformed network. *)

open Ta

let loc = Model.location
let edge = Model.edge

(* A small lamp controller PIM (same shape as the quickstart example). *)
let controller =
  Model.automaton ~name:"Controller" ~initial:"Off"
    [ loc "Off"; loc ~inv:[ Clockcons.le "x" 50 ] "Switching"; loc "On" ]
    [ edge ~sync:(Model.Recv "m_Press") ~resets:[ "x" ] "Off" "Switching";
      edge ~guard:[ Clockcons.ge "x" 10 ] ~sync:(Model.Send "c_On")
        "Switching" "On" ]

let user =
  Model.automaton ~name:"User" ~initial:"Idle"
    [ loc "Idle"; loc "Waiting"; loc "Happy" ]
    [ edge ~sync:(Model.Send "m_Press") "Idle" "Waiting";
      edge ~sync:(Model.Recv "c_On") "Waiting" "Happy" ]

let pim_net =
  Model.network ~name:"lamp" ~clocks:[ "x" ] ~vars:[]
    ~channels:[ ("m_Press", Model.Broadcast); ("c_On", Model.Broadcast) ]
    [ controller; user ]

let pim () = Transform.Pim.make pim_net ~software:"Controller" ~environment:"User"

let scheme ?(input = Scheme.interrupt_input (Scheme.delay 1 3))
    ?(input_comm = Scheme.Buffer (2, Scheme.Read_all))
    ?(invocation = Scheme.Periodic 20) () =
  { Scheme.is_name = "test";
    is_inputs = [ ("m_Press", input) ];
    is_outputs = [ ("c_On", Scheme.pulse_output (Scheme.delay 2 5)) ];
    is_input_comm = input_comm;
    is_output_comm = Scheme.Buffer (2, Scheme.Read_all);
    is_invocation = invocation;
    is_exec = { Scheme.wcet_min = 1; wcet_max = 5 } }

(* --- Pim.make ---------------------------------------------------------- *)

let test_pim_inference () =
  let p = pim () in
  Alcotest.(check (list string)) "inputs" [ "m_Press" ] p.Transform.Pim.pim_inputs;
  Alcotest.(check (list string)) "outputs" [ "c_On" ] p.Transform.Pim.pim_outputs

let test_pim_rejects_missing_automaton () =
  (match Transform.Pim.make pim_net ~software:"Nobody" ~environment:"User" with
   | exception Transform.Pim.Ill_formed _ -> ()
   | _ -> Alcotest.fail "missing software accepted")

let test_pim_rejects_binary_boundary () =
  let net =
    { pim_net with
      Model.net_channels =
        [ ("m_Press", Model.Binary); ("c_On", Model.Broadcast) ] }
  in
  (match Transform.Pim.make net ~software:"Controller" ~environment:"User" with
   | exception Transform.Pim.Ill_formed _ -> ()
   | _ -> Alcotest.fail "binary m-channel accepted")

let test_pim_rejects_clock_guarded_input () =
  let guarded =
    { controller with
      Model.aut_edges =
        [ edge ~guard:[ Clockcons.ge "x" 1 ] ~sync:(Model.Recv "m_Press")
            ~resets:[ "x" ] "Off" "Switching";
          edge ~guard:[ Clockcons.ge "x" 10 ] ~sync:(Model.Send "c_On")
            "Switching" "On" ] }
  in
  let net = Model.replace_automaton pim_net "Controller" guarded in
  (match Transform.Pim.make net ~software:"Controller" ~environment:"User" with
   | exception Transform.Pim.Ill_formed _ -> ()
   | _ -> Alcotest.fail "clock-guarded input reception accepted")

(* --- modularity --------------------------------------------------------- *)

let test_mio_preserves_structure () =
  let p = pim () in
  let mio = Transform.mio_of_software p in
  Alcotest.(check int) "locations preserved"
    (List.length controller.Model.aut_locations)
    (List.length mio.Model.aut_locations);
  Alcotest.(check int) "edges preserved"
    (List.length controller.Model.aut_edges)
    (List.length mio.Model.aut_edges);
  Alcotest.(check (list string)) "receives renamed m->i" [ "i_Press" ]
    (Model.receives_of mio);
  Alcotest.(check (list string)) "sends renamed c->o" [ "o_On" ]
    (Model.sends_of mio);
  (* every edge gated on the compute window *)
  List.iter
    (fun e ->
      let mentions_exe =
        List.mem Transform.Names.exe_running (Expr.vars_of_pred e.Model.edge_pred)
      in
      Alcotest.(check bool) "gated" true mentions_exe)
    mio.Model.aut_edges

let test_env_unchanged () =
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  let env = Model.find_automaton psm.Transform.psm_net "User" in
  Alcotest.(check bool) "ENVMC is ENV, verbatim" true (env = user)

let test_psm_validates () =
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  Alcotest.(check (list string)) "valid" [] (Model.validate psm.Transform.psm_net)

let automaton_names psm =
  List.map
    (fun a -> a.Model.aut_name)
    psm.Transform.psm_net.Model.net_automata

let test_psm_composition () =
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  let names = automaton_names psm in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "Controller_IO"; "User"; "IFMI_Press"; "IFOC_On"; "EXEIO" ]

(* --- mechanism variants -------------------------------------------------- *)

(* Aperiodic invocation requires immediate-response software (no timed
   waits); these tests use a controller that answers in the invocation
   that delivers the input. *)
let immediate_pim () =
  let controller =
    Model.automaton ~name:"Controller" ~initial:"Off"
      [ loc "Off"; loc ~inv:[ Clockcons.le "x" 50 ] "Switching"; loc "On" ]
      [ edge ~sync:(Model.Recv "m_Press") ~resets:[ "x" ] "Off" "Switching";
        edge ~sync:(Model.Send "c_On") "Switching" "On" ]
  in
  let net = Model.replace_automaton pim_net "Controller" controller in
  Transform.Pim.make net ~software:"Controller" ~environment:"User"

let edges_of psm name =
  (Model.find_automaton psm.Transform.psm_net name).Model.aut_edges

let test_interrupt_ifmi_shape () =
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  let ifmi = Model.find_automaton psm.Transform.psm_net "IFMI_Press" in
  Alcotest.(check int) "two locations" 2 (List.length ifmi.Model.aut_locations);
  (* miss flag instrumentation on re-trigger *)
  let has_miss_loop =
    List.exists
      (fun e ->
        e.Model.edge_src = "Processing"
        && e.Model.edge_dst = "Processing"
        && e.Model.edge_sync = Model.Recv "m_Press")
      ifmi.Model.aut_edges
  in
  Alcotest.(check bool) "missed-pulse loop" true has_miss_loop;
  Alcotest.(check (list (pair string string))) "miss flags"
    [ ("m_Press", "imiss_Press") ]
    psm.Transform.psm_miss_flags

let test_polling_adds_latch () =
  let input =
    Scheme.polling_input ~interval:7 (Scheme.delay 1 3)
  in
  let psm = Transform.psm_of_pim (pim ()) (scheme ~input ()) in
  let names = automaton_names psm in
  Alcotest.(check bool) "latch present" true (List.mem "Latch_Press" names);
  Alcotest.(check bool) "no miss flag for polling" true
    (psm.Transform.psm_miss_flags = []);
  (* the polling IFMI carries the poll clock in its Idle invariant *)
  let ifmi = Model.find_automaton psm.Transform.psm_net "IFMI_Press" in
  let idle = Model.find_location ifmi "Idle" in
  Alcotest.(check bool) "poll invariant" true
    (List.mem "p_Press" (Clockcons.clocks idle.Model.loc_inv))

let test_sustained_latch_autodrops () =
  let input =
    Scheme.polling_input ~signal:(Scheme.Sustained 30) ~interval:7
      (Scheme.delay 1 3)
  in
  let psm = Transform.psm_of_pim (pim ()) (scheme ~input ()) in
  let latch = Model.find_automaton psm.Transform.psm_net "Latch_Press" in
  Alcotest.(check int) "two-state latch" 2
    (List.length latch.Model.aut_locations)

let test_shared_variable_flags () =
  let psm =
    Transform.psm_of_pim (pim ()) (scheme ~input_comm:Scheme.Shared_variable ())
  in
  Alcotest.(check (list (pair string string))) "overwrite-loss flag"
    [ ("m_Press", "ilost_Press") ]
    psm.Transform.psm_input_loss_flags

let test_buffer_flags () =
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  Alcotest.(check (list (pair string string))) "overflow flag"
    [ ("m_Press", "iovf_Press") ]
    psm.Transform.psm_input_loss_flags;
  Alcotest.(check (list (pair string string))) "output overflow flag"
    [ ("c_On", "oovf_On") ]
    psm.Transform.psm_output_loss_flags

let test_periodic_exeio_stages () =
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  let exeio = Model.find_automaton psm.Transform.psm_net "EXEIO" in
  let names = List.map (fun l -> l.Model.loc_name) exeio.Model.aut_locations in
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " stage") true (List.mem stage names))
    [ "Waiting"; "Active"; "Reading"; "Computing"; "Writing" ]

let test_aperiodic_exeio () =
  let psm =
    Transform.psm_of_pim (immediate_pim ())
      (scheme ~invocation:(Scheme.Aperiodic 0) ())
  in
  let exeio = Model.find_automaton psm.Transform.psm_net "EXEIO" in
  (* invoked by the kick broadcast *)
  Alcotest.(check bool) "kick receiver" true
    (List.mem Transform.Names.kick_chan (Model.receives_of exeio));
  (* the IFMI kicks on insertion *)
  let ifmi = Model.find_automaton psm.Transform.psm_net "IFMI_Press" in
  Alcotest.(check bool) "IFMI kicks" true
    (List.mem Transform.Names.kick_chan (Model.sends_of ifmi))

let test_aperiodic_cooldown () =
  let psm =
    Transform.psm_of_pim (immediate_pim ())
      (scheme ~invocation:(Scheme.Aperiodic 8) ())
  in
  let exeio = Model.find_automaton psm.Transform.psm_net "EXEIO" in
  let names = List.map (fun l -> l.Model.loc_name) exeio.Model.aut_locations in
  Alcotest.(check bool) "cooldown location" true (List.mem "Cooldown" names)

let test_read_one_vs_read_all () =
  let all = Transform.psm_of_pim (pim ()) (scheme ()) in
  let one =
    Transform.psm_of_pim (pim ())
      (scheme ~input_comm:(Scheme.Buffer (2, Scheme.Read_one)) ())
  in
  let reading_self_loops psm =
    List.length
      (List.filter
         (fun e -> e.Model.edge_src = "Reading" && e.Model.edge_dst = "Reading")
         (edges_of psm "EXEIO"))
  in
  Alcotest.(check int) "read-all loops in Reading" 1 (reading_self_loops all);
  Alcotest.(check int) "read-one goes straight to Computing" 0
    (reading_self_loops one)

let test_uncovered_input_rejected () =
  let s = { (scheme ()) with Scheme.is_inputs = [] } in
  (match Transform.psm_of_pim (pim ()) s with
   | exception Transform.Transform_error _ -> ()
   | _ -> Alcotest.fail "uncovered input accepted")

let test_aperiodic_timed_wait_rejected () =
  (* The lamp controller waits x >= 10 before answering; an aperiodic
     executive would never wake it up. *)
  (match
     Transform.psm_of_pim (pim ()) (scheme ~invocation:(Scheme.Aperiodic 0) ())
   with
   | exception Transform.Transform_error _ -> ()
   | _ -> Alcotest.fail "aperiodic + timed wait accepted")

let test_unrealisable_scheme_rejected () =
  let s =
    scheme
      ~input:
        { Scheme.in_signal = Scheme.Pulse;
          in_read = Scheme.Polling 5;
          in_delay = Scheme.delay 1 3 }
      ()
  in
  (match Transform.psm_of_pim (pim ()) s with
   | exception Transform.Transform_error _ -> ()
   | _ -> Alcotest.fail "pulse+polling scheme accepted")

(* --- behavior ------------------------------------------------------------ *)

let test_psm_end_to_end_reachability () =
  (* The lamp still turns on through the whole platform chain. *)
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  let t = Mc.Explorer.make psm.Transform.psm_net in
  let happy = Mc.Explorer.at t ~aut:"User" ~loc:"Happy" in
  Alcotest.(check bool) "user sees the lamp" true
    ((Mc.Explorer.reachable t happy).Mc.Explorer.r_trace <> None)

let test_psm_delay_grows () =
  (* The platform can only add delay: verified PSM bound >= PIM bound. *)
  let pim_bound =
    (Mc.Query.max_delay pim_net ~trigger:"m_Press" ~response:"c_On"
       ~ceiling:1000)
      .Mc.Explorer.so_sup
  in
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  let psm_bound =
    (Mc.Query.max_delay psm.Transform.psm_net ~trigger:"m_Press"
       ~response:"c_On" ~ceiling:1000)
      .Mc.Explorer.so_sup
  in
  match pim_bound, psm_bound with
  | Mc.Explorer.Sup (a, _), Mc.Explorer.Sup (b, _) ->
    Alcotest.(check bool) (Fmt.str "PSM %d >= PIM %d" b a) true (b >= a)
  | _ -> Alcotest.fail "expected bounded delays on both models"

let suite =
  [ Alcotest.test_case "PIM channel inference" `Quick test_pim_inference;
    Alcotest.test_case "PIM rejects missing automaton" `Quick
      test_pim_rejects_missing_automaton;
    Alcotest.test_case "PIM rejects binary boundary channels" `Quick
      test_pim_rejects_binary_boundary;
    Alcotest.test_case "PIM rejects clock-guarded inputs" `Quick
      test_pim_rejects_clock_guarded_input;
    Alcotest.test_case "MIO preserves structure" `Quick
      test_mio_preserves_structure;
    Alcotest.test_case "ENV unchanged" `Quick test_env_unchanged;
    Alcotest.test_case "PSM validates" `Quick test_psm_validates;
    Alcotest.test_case "PSM composition" `Quick test_psm_composition;
    Alcotest.test_case "interrupt IFMI shape" `Quick test_interrupt_ifmi_shape;
    Alcotest.test_case "polling adds a latch" `Quick test_polling_adds_latch;
    Alcotest.test_case "sustained latch autodrops" `Quick
      test_sustained_latch_autodrops;
    Alcotest.test_case "shared variable loss flags" `Quick
      test_shared_variable_flags;
    Alcotest.test_case "buffer overflow flags" `Quick test_buffer_flags;
    Alcotest.test_case "periodic EXEIO stages" `Quick
      test_periodic_exeio_stages;
    Alcotest.test_case "aperiodic EXEIO kick wiring" `Quick
      test_aperiodic_exeio;
    Alcotest.test_case "aperiodic cooldown" `Quick test_aperiodic_cooldown;
    Alcotest.test_case "read-one vs read-all" `Quick test_read_one_vs_read_all;
    Alcotest.test_case "uncovered input rejected" `Quick
      test_uncovered_input_rejected;
    Alcotest.test_case "aperiodic + timed wait rejected" `Quick
      test_aperiodic_timed_wait_rejected;
    Alcotest.test_case "unrealisable scheme rejected" `Quick
      test_unrealisable_scheme_rejected;
    Alcotest.test_case "end-to-end reachability" `Quick
      test_psm_end_to_end_reachability;
    Alcotest.test_case "platform only adds delay" `Quick test_psm_delay_grows ]
