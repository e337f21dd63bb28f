let () =
  Alcotest.run "toposearch"
    (Suite_util.suites @ Suite_relational.suites @ Suite_graph.suites @ Suite_biozon.suites
   @ Suite_core.suites @ Suite_extensions.suites @ Suite_sql_deep.suites
   @ Suite_cost_optimizer.suites @ Suite_plan_check.suites @ Suite_engine_matrix.suites @ Suite_operators_deep.suites @ Suite_invariants.suites @ Suite_misc.suites @ Suite_obs.suites
   @ Suite_parallel.suites @ Suite_serve.suites @ Suite_cache.suites @ Suite_snapshot.suites
   @ Suite_kernels.suites @ Suite_latency.suites @ Suite_wire.suites @ Suite_lint.suites @ Suite_codec.suites)
