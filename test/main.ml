(* Aggregated test runner: `dune runtest`.

   The binary doubles as the fleet suite's worker subprocess: when invoked
   with its child-mode flag it runs that mode and exits here, before
   alcotest can object to the unknown arguments. *)
let () = Suite_faulty.maybe_run_child ()
let () = Suite_fleet.maybe_run_child ()
let () = Suite_service.maybe_run_child ()

let () =
  Alcotest.run "ncg-repro"
    [
      Suite_rational.suite;
      Suite_graph.suite;
      Suite_game.suite;
      Suite_core.suite;
      Suite_differential.suite;
      Suite_incremental.suite;
      Suite_sublinear.suite;
      Suite_sentinel.suite;
      Suite_envelope.suite;
      Suite_parallel.suite;
      Suite_instances.suite;
      Suite_search.suite;
      Suite_experiments.suite;
      Suite_batch.suite;
      Suite_faulty.suite;
      Suite_fleet.suite;
      Suite_service.suite;
    ]
