(* The per-layer metrics of a traced run.

   Layer times are self times summed over the traced steps and given as a
   share of the summed step time, so every layer reads on the same scale
   on every workload; [step.mean_ms] turns a share back into time per
   step.  Counts are per replayed step, so runs of different length
   compare.  A layer that a workload never calls (the cost board under the
   random policy, the cycle key with cycle detection off, the daemon on
   the in-process workloads) reads 0. *)

open Report

type service = {
  admit_frac : float;
  normal_form_frac : float;
  sim_frac : float;
  wait_io_frac : float;
  cache_hits : int;
  cache_misses : int;
  retries : int;
  worker_deaths : int;
  shed : int;
}

let no_service =
  {
    admit_frac = 0.0;
    normal_form_frac = 0.0;
    sim_frac = 0.0;
    wait_io_frac = 0.0;
    cache_hits = 0;
    cache_misses = 0;
    retries = 0;
    worker_deaths = 0;
    shed = 0;
  }

(* [ops]: latency of each of the workload's operations in the traced run,
   seconds; [gen]: seconds per generated network; [overhead]: traced
   replica time over untraced engine time on the same trials, minus 1. *)
let metrics ~trace ~(counters : Replica.counters) ~ops ~gen ~overhead
    ?(runner_overhead = 0.0) ?(service = no_service) () =
  let self = Trace.self_times trace in
  let steps = Trace.step_durations trace in
  let step_total = sum steps in
  let frac phases = ratio (List.fold_left (fun a p -> a +. self p) 0.0 phases) step_total in
  let per_step x = ratio (float_of_int x) (float_of_int counters.Replica.steps) in
  let c = counters.Replica.cache in
  let decided =
    c.Ncg_game.Distcache.kept + c.Ncg_game.Distcache.repaired
    + c.Ncg_game.Distcache.rebuilt
  in
  let probes = counters.Replica.witness_hits + counters.Replica.witness_scans in
  let ms s = 1000.0 *. s in
  let frac_m name phases = metric name "frac" (frac phases) in
  let count name x = metric name "count" (float_of_int x) in
  [
    count "op.count" (Array.length ops);
    metric "op.p50_ms" "ms" (ms (quantile ops 0.5));
    metric "op.p90_ms" "ms" (ms (quantile ops 0.9));
    metric "step.mean_ms" "ms" (ms (mean steps));
    metric "step.p50_ms" "ms" (ms (quantile steps 0.5));
    metric "step.p90_ms" "ms" (ms (quantile steps 0.9));
    frac_m "board.refresh_frac" [ Trace.Board ];
    frac_m "policy.select_frac" [ Trace.Select ];
    frac_m "response.scan_frac" [ Trace.Scan ];
    frac_m "distcache.pin_frac" [ Trace.Pin ];
    frac_m "distcache.patch_frac" [ Trace.Patch ];
    frac_m "move.apply_frac" [ Trace.Apply ];
    frac_m "canonical.key_frac" [ Trace.Key ];
    frac_m "engine.misc_frac" [ Trace.Ctx; Trace.Tie; Trace.Clear ];
    frac_m "engine.other_frac" [ Trace.Step ];
    metric "trace.coverage" "frac" (1.0 -. frac [ Trace.Step ]);
    metric "trace.overhead_frac" "frac" overhead;
    metric "board.updates_per_step" "count" (per_step counters.Replica.board_updates);
    metric "board.dirty_frac" "frac"
      (ratio counters.Replica.dirty_share
         (float_of_int counters.Replica.dirty_refreshes));
    metric "witness.hits_per_step" "count" (per_step counters.Replica.witness_hits);
    metric "witness.scans_per_step" "count" (per_step counters.Replica.witness_scans);
    metric "witness.skips_per_step" "count" (per_step counters.Replica.witness_skips);
    metric "witness.hit_ratio" "frac"
      (ratio (float_of_int counters.Replica.witness_hits) (float_of_int probes));
    metric "response.best_moves_len" "count"
      (ratio (float_of_int counters.Replica.moves_len)
         (float_of_int counters.Replica.scans));
    metric "distcache.fills_per_step" "count" (per_step c.Ncg_game.Distcache.fills);
    metric "distcache.evicted_per_step" "count"
      (per_step c.Ncg_game.Distcache.evicted);
    metric "distcache.kept_per_step" "count" (per_step c.Ncg_game.Distcache.kept);
    metric "distcache.repaired_per_step" "count"
      (per_step c.Ncg_game.Distcache.repaired);
    metric "distcache.rebuilt_per_step" "count"
      (per_step c.Ncg_game.Distcache.rebuilt);
    metric "distcache.keep_ratio" "frac"
      (ratio (float_of_int c.Ncg_game.Distcache.kept) (float_of_int decided));
    count "distcache.peak_tables" counters.Replica.peak_tables;
    metric "distcache.peak_mib" "MiB"
      (float_of_int counters.Replica.peak_bytes /. (1024.0 *. 1024.0));
    metric "gen.ms" "ms" (ms (median gen));
    metric "runner.overhead_frac" "frac" runner_overhead;
    metric "daemon.admit_frac" "frac" service.admit_frac;
    metric "canonical.normal_form_frac" "frac" service.normal_form_frac;
    metric "sim.frac" "frac" service.sim_frac;
    metric "daemon.wait_io_frac" "frac" service.wait_io_frac;
    count "daemon.cache_hits" service.cache_hits;
    count "daemon.cache_misses" service.cache_misses;
    metric "daemon.hit_ratio" "frac"
      (ratio (float_of_int service.cache_hits)
         (float_of_int (service.cache_hits + service.cache_misses)));
    count "daemon.retries" service.retries;
    count "daemon.worker_deaths" service.worker_deaths;
    count "daemon.shed" service.shed;
  ]
