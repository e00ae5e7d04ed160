let () =
  Alcotest.run "sdnshield"
    [ ("openflow", Test_openflow.suite);
      ("network", Test_network.suite);
      ("controller", Test_controller.suite);
      ("filters", Test_filters.suite);
      ("parsers", Test_parsers.suite);
      ("inclusion", Test_inclusion.suite);
      ("perm-ops", Test_perm_ops.suite);
      ("reconcile", Test_reconcile.suite);
      ("engine", Test_engine.suite);
      ("apps", Test_apps.suite);
      ("attacks", Test_attacks.suite);
      ("workload", Test_workload.suite);
      ("automaton", Test_automaton.suite);
      ("engine-oracles", Test_automaton.oracle_suite);
      ("infer", Test_infer.suite);
      ("hll", Test_hll.suite);
      ("runtime-ext", Test_runtime_ext.suite);
      ("faults", Test_faults.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("vetting", Test_vetting.suite);
      ("lint", Test_lint.suite);
      ("diff", Test_diff.suite);
      ("verify", Test_verify.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("forensics", Test_forensics.suite);
      ("market", Test_market.suite);
      ("epoch", Test_epoch.suite) ]
