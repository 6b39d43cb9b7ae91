(* Aggregates all module suites under one alcotest binary
   (`dune runtest`). *)

let () =
  Alcotest.run "pcc_proteus"
    [
      ("stats", Test_stats.suite);
      ("oracles", Test_oracles.suite);
      ("eventsim", Test_eventsim.suite);
      ("wheel", Test_wheel.suite);
      ("obs", Test_obs.suite);
      ("net", Test_net.suite);
      ("topology", Test_topology.suite);
      ("faults", Test_faults.suite);
      ("cc", Test_cc.suite);
      ("datapath", Test_datapath.suite);
      ("proteus", Test_proteus.suite);
      ("equilibrium", Test_equilibrium.suite);
      ("policies", Test_policies.suite);
      ("properties", Test_props.suite);
      ("edge", Test_edge.suite);
      ("more", Test_more.suite);
      ("controller-unit", Test_controller_unit.suite);
      ("timing", Test_timing.suite);
      ("parallel", Test_parallel.suite);
      ("harness", Test_harness.suite);
      ("video", Test_video.suite);
      ("web", Test_web.suite);
      ("fluid", Test_fluid.suite);
      ("shard", Test_shard.suite);
      ("scenario", Test_scenario.suite);
    ]
