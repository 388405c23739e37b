let () =
  Alcotest.run "psv"
    [ ("expr", Test_expr.suite);
      ("dbm", Test_dbm.suite);
      ("model", Test_model.suite);
      ("compiled", Test_compiled.suite);
      ("mc", Test_mc.suite);
      ("runctl", Test_runctl.suite);
      ("parsearch", Test_parsearch.suite);
      ("monitor", Test_monitor.suite);
      ("semantics", Test_semantics.suite);
      ("query", Test_query.suite);
      ("scheme", Test_scheme.suite);
      ("transform", Test_transform.suite);
      ("code-runner", Test_code_runner.suite);
      ("sim", Test_sim.suite);
      ("faults", Test_faults.suite);
      ("analysis", Test_analysis.suite);
      ("xta", Test_xta.suite);
      ("timed-trace", Test_trace.suite);
      ("end-to-end", Test_endtoend.suite);
      ("render", Test_render.suite);
      ("extras", Test_extras.suite);
      ("codegen", Test_codegen.suite);
      ("gpca", Test_gpca.suite);
      ("store", Test_store.suite);
      ("fault-plane", Test_fault.suite);
      ("chaos-store", Chaos_store.suite);
      ("chaos-serve", Chaos_serve.suite);
      ("sweep", Test_sweep.suite);
      ("chaos-net", Chaos_net.suite);
      ("incr", Test_incr.suite);
      ("chaos-incr", Chaos_incr.suite);
      ("diff", Test_diff.suite);
      ("cli", Cli.suite) ]
