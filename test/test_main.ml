let () =
  Alcotest.run "datalawyer"
    [
      ("foundation", Test_foundation.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("executor", Test_executor.suite);
      ("substrate_edge", Test_substrate_edge.suite);
      ("csv", Test_csv.suite);
      ("sql_features", Test_sql_features.suite);
      ("usage_log", Test_usage_log.suite);
      ("analysis", Test_analysis.suite);
      ("policy", Test_policy.suite);
      ("witness", Test_witness.suite);
      ("compaction", Test_compaction.suite);
      ("commit", Test_commit.suite);
      ("partial", Test_partial.suite);
      ("unify", Test_unify.suite);
      ("engine", Test_engine.suite);
      ("engine_strategies", Test_engine_strategies.suite);
      ("extension", Test_extension.suite);
      ("persist", Test_persist.suite);
      ("index", Test_index.suite);
      ("plan_diff", Test_plan_diff.suite);
      ("parallel", Test_parallel.suite);
      ("delta", Test_delta.suite);
      ("unify_scale", Test_unify_scale.suite);
      ("server", Test_server.suite);
      ("oracle", Test_oracle.suite);
      ("properties", Test_props.suite);
    ]
