(* Bench harness: the engine's speed legs, each checking trajectory
   identity against its baseline.

     dune exec bench/main.exe                       -- every leg
     dune exec bench/main.exe -- --only fastpath    -- one leg
     dune exec bench/main.exe -- --json BENCH.json  -- machine-readable

   The paper's claims are checked by bin/ncg_verify (which `dune runtest`
   runs) and printed under each `ncg_sim figN` table, not here. *)

open Ncg_graph
open Ncg_game
open Ncg_core
open Ncg_experiments

type scale = { trials : int; seed : int }

let check name ok =
  Printf.printf "  [%s] %s\n%!" (if ok then "ok" else "FAIL") name

(* ------------------------------------------------------------------ *)
(* Fast path vs reference oracle                                       *)
(* ------------------------------------------------------------------ *)

type engine_sample = { wall_s : float; steps : int }

(* Every speedup leg times each engine variant as the best of [timing_k]
   passes: the ratios claimed here are single-digit multipliers, and a
   single-shot wall clock on a loaded core is too noisy for them.  The
   best pass is the least-contended one; trajectory identity is still
   checked on the kept runs, and [timing_k] lands in BENCH.json so a
   reader knows what the numbers are the best of. *)
let timing_k = 2

let time_best ?(k = timing_k) f =
  let one () =
    (* Start every sample from a compacted heap: earlier legs grow the
       major heap, and the GC pressure they leave behind can swing an
       allocation-sensitive sample by tens of percent. *)
    Gc.compact ();
    let t0 = Clock.monotonic () in
    let results = f () in
    let wall = Clock.monotonic () -. t0 in
    let steps =
      List.fold_left (fun acc (r : Engine.result) -> acc + r.Engine.steps)
        0 results
    in
    ({ wall_s = wall; steps }, results)
  in
  let rate (s, _) =
    if s.wall_s > 0.0 then float_of_int s.steps /. s.wall_s else 0.0
  in
  let best = ref (one ()) in
  for _ = 2 to k do
    let candidate = one () in
    if rate candidate > rate !best then best := candidate
  done;
  !best

type fastpath_report = {
  fp_n : int;
  fp_m : int;
  fp_alpha : string;
  fp_trials : int;
  reference : engine_sample;
  fast : engine_sample;
  fast_sentinel : engine_sample;
  fp_cache : Distcache.stats;
  identical : bool;
}

let fastpath_report : fastpath_report option ref = ref None

(* SUM-GBG sweep, n=100, m=4n, a=n/4, max cost. *)
let fastpath scale =
  (* The acceptance configuration is pinned at n=100 whatever --trials
     says: the speedup claim in BENCH.json is only meaningful at a fixed
     size. *)
  let n = 100 in
  let m = 4 * n in
  let alpha = Ncg_rational.Q.make n 4 in
  let model = Model.make ~alpha Model.Gbg Model.Sum n in
  let trials = max 1 (min 3 scale.trials) in
  let cfg =
    Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
      model
  in
  let time run =
    time_best (fun () ->
        List.init trials (fun i ->
            let seed = scale.seed + i in
            let g = Gen.random_m_edges (Random.State.make [| seed |]) n m in
            run seed g))
  in
  let rng seed = Random.State.make [| seed; 0xfa57 |] in
  let reference, ref_runs =
    time (fun seed g -> Reference.run ~rng:(rng seed) cfg g)
  in
  let fast, fast_runs = time (fun seed g -> Engine.run ~rng:(rng seed) cfg g) in
  (* the self-healing deployment configuration: 1% of steps shadow-checked
     against the naive machinery.  Must keep the speedup floor. *)
  let sentinel_cfg =
    Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
      ~sentinel:(Sentinel.Sampled 0.01) model
  in
  let fast_sentinel, sent_runs =
    time (fun seed g -> Engine.run ~rng:(rng seed) sentinel_cfg g)
  in
  let identical =
    List.for_all2
      (fun (a : Engine.result) (b : Engine.result) ->
        a.Engine.steps = b.Engine.steps
        && a.Engine.reason = b.Engine.reason
        && Graph.equal a.Engine.final b.Engine.final)
      ref_runs fast_runs
    && List.for_all2
         (fun (a : Engine.result) (b : Engine.result) ->
           a.Engine.steps = b.Engine.steps
           && Graph.equal a.Engine.final b.Engine.final)
         fast_runs sent_runs
  in
  let sentinel_clean =
    List.for_all
      (fun (r : Engine.result) ->
        r.Engine.sentinel.Sentinel.incidents = []
        && r.Engine.sentinel.Sentinel.degraded_at = None)
      sent_runs
  in
  (* the cross-step cache's decisions over the timed fast runs *)
  let cache =
    List.fold_left
      (fun acc (r : Engine.result) -> Distcache.add_stats acc r.Engine.cache)
      Distcache.zero_stats fast_runs
  in
  let per_s { wall_s; steps } =
    if wall_s > 0.0 then float_of_int steps /. wall_s else 0.0
  in
  let show label s =
    Printf.printf "  %-22s %4d steps  %7.3f s  %8.0f steps/s\n" label s.steps
      s.wall_s (per_s s)
  in
  show "reference (naive)" reference;
  show "fast" fast;
  show "fast + sentinel 1%" fast_sentinel;
  Printf.printf "  cache: %d kept, %d repaired, %d rebuilt, %d fills\n"
    cache.Distcache.kept cache.Distcache.repaired cache.Distcache.rebuilt
    cache.Distcache.fills;
  let speedup =
    if fast.wall_s > 0.0 then reference.wall_s /. fast.wall_s else 0.0
  in
  let sentinel_speedup =
    if fast_sentinel.wall_s > 0.0 then reference.wall_s /. fast_sentinel.wall_s
    else 0.0
  in
  Printf.printf "  speedup: %.2fx (%.2fx with 1%% sentinel)\n" speedup
    sentinel_speedup;
  check "identical trajectories across engines" identical;
  check "sentinel saw no divergence on the healthy path" sentinel_clean;
  check "cache kept or repaired tables" (cache.Distcache.kept > 0);
  check "fast engine at least 3x faster" (speedup >= 3.0);
  check "1% sentinel keeps the 3x floor" (sentinel_speedup >= 3.0);
  fastpath_report :=
    Some
      {
        fp_n = n;
        fp_m = m;
        fp_alpha = Ncg_rational.Q.to_string alpha;
        fp_trials = trials;
        reference;
        fast;
        fast_sentinel;
        fp_cache = cache;
        identical;
      }

(* ------------------------------------------------------------------ *)
(* Large n: the board at n=1000, the memory bound, the large-n oracle  *)
(* ------------------------------------------------------------------ *)

(* A short run with the sentinel on every step beside the same run
   unchecked. *)
type oracle_run = {
  or_n : int;
  or_budget : int option;
  or_max_steps : int;
  or_checked_run : engine_sample;
  or_unchecked_run : engine_sample;
  or_checked : int;
  or_incidents : int;
  or_degraded : bool;
  or_same_final : bool;
  or_peak_tables : int;
}

(* A run to convergence, then naive unhappiness probes of its sink. *)
type converged_run = {
  cv_run : engine_sample;
  cv_converged : bool;
  cv_probes : int;
  cv_unhappy : int;
  cv_probe_s : float;
}

type scaling_report = {
  sc_n : int;
  sc_m : int;
  sc_alpha : string;
  sc_max_steps : int;
  sc_run : engine_sample;
  sc_large_n : int;
  sc_large_budget : int;
  sc_large_max_steps : int;
  sc_large : engine_sample;
  sc_large_peak_tables : int;
  sc_large_peak_bytes : int;
  sc_large_within_budget : bool;
  sc_large_peak_rss_mib : float option;
  sc_large_fills : int;
  sc_large_audit_clean : bool;
  sc_oracle : oracle_run list;
  sc_converged : converged_run;
}

let scaling_report : scaling_report option ref = ref None

(* Peak resident set size of this process so far (VmHWM), in MiB; [None]
   where /proc is unavailable. *)
let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.0))
        | _ -> find ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) find

(* SUM-GBG max cost: n=1000 on the cost board; bounded n=10000 under a
   cache budget; the large-n oracle. *)
let scaling_leg scale =
  (* Pinned sizes like the other legs.  The n=1000 run is step-bounded, so
     its rate is per-step cost, not convergence time.  The n=10000 run
     demonstrates the memory bound: a 64-table budget caps the cache near
     5 MiB where an unbounded cache would hold all n tables (~800 MiB of
     distance rows). *)
  let model_of n =
    Model.make ~alpha:(Ncg_rational.Q.make n 4) Model.Gbg Model.Sum n
  in
  let run_bounded ?audit ?sentinel ?max_steps ?(gen_seed = [| scale.seed |])
      ?(rng_seed = [| scale.seed; 0xfa57 |]) ~n ~cache_budget () =
    let cfg =
      Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
        ?max_steps ~record_history:false ?cache_budget ?audit ?sentinel
        (model_of n)
    in
    let g = Gen.random_m_edges (Random.State.make gen_seed) n (4 * n) in
    Engine.run ~rng:(Random.State.make rng_seed) cfg g
  in
  let n = 1000 and max_steps = 250 in
  let run, _ =
    time_best (fun () ->
        [ run_bounded ~n ~max_steps ~cache_budget:None () ])
  in
  Printf.printf "  n=%d: %d steps  %7.3f s  %8.0f steps/s\n" n run.steps
    run.wall_s
    (if run.wall_s > 0.0 then float_of_int run.steps /. run.wall_s else 0.0);
  (* n=10000 under a hard residency cap: the point is completing at all
     within a fixed memory envelope, so a handful of steps suffices. *)
  let large_n = 10_000 and large_budget = 64 and large_steps = 10 in
  (* Single pass: the assertion is completion within the memory envelope,
     not a rate, and an n=10000 pass is the most expensive part of this
     leg — best-of-k would double it for nothing. *)
  let large, residency, large_cache, large_final =
    Gc.compact ();
    let t0 = Clock.monotonic () in
    let r =
      run_bounded ~n:large_n ~max_steps:large_steps
        ~cache_budget:(Some large_budget) ()
    in
    let wall = Clock.monotonic () -. t0 in
    ( { wall_s = wall; steps = r.Engine.steps },
      r.Engine.residency,
      r.Engine.cache,
      r.Engine.final )
  in
  (* Whole-process peak, read right after the largest run: the cache's
     residency alone misses the graphs (the initial network and the
     engine's working copy), where n² words per matrix would dominate. *)
  let peak_rss = peak_rss_mib () in
  (* [Distcache.ensure] admits the new table before evicting, and pinned
     tables (the applied move's endpoints) are exempt while held — so the
     peak may transiently sit a few tables above the budget, never more
     than the pin width. *)
  let pin_slack = 8 in
  let within_budget = residency.Distcache.peak <= large_budget + pin_slack in
  Printf.printf
    "  n=%d budget=%d: %d steps, %.3f s; peak residency %d tables (%.2f \
     MiB)\n"
    large_n large_budget large.steps large.wall_s residency.Distcache.peak
    (float_of_int residency.Distcache.peak_bytes /. (1024.0 *. 1024.0));
  (* One full BFS per fill.  Board keys fill nothing (an agent without a
     resident table is keyed from the cache's bit-parallel batch), so the
     fills are the probed agents' and the movers' own rows: about two per
     step. *)
  Printf.printf "  table fills: %d (%.2f per agent)\n"
    large_cache.Distcache.fills
    (float_of_int large_cache.Distcache.fills /. float_of_int large_n);
  Option.iter (Printf.printf "  process peak RSS after it: %.1f MiB\n")
    peak_rss;
  (* The same run again with the board audited at steps 0 and 5: every
     key against a fresh single-source BFS (n of them per audited step),
     so a stale or wrong key stops the run naming its agent.  Clean means
     the audited run took the timed run's steps to its final graph. *)
  let audited =
    run_bounded ~audit:(Audit.Sampled 5) ~n:large_n ~max_steps:large_steps
      ~cache_budget:(Some large_budget) ()
  in
  let audit_clean =
    audited.Engine.reason = Engine.Step_limit
    && Graph.equal audited.Engine.final large_final
  in
  Printf.printf "  audited rerun (board checked at steps 0 and 5): %s\n"
    (match audited.Engine.reason with
    | Engine.Invariant_violation v -> Audit.violation_to_string v
    | _ -> if audit_clean then "clean" else "diverged from the timed run");
  (* The large-n oracle.  The sentinel replays every step through the
     naive machinery (the mover through [Policy.select], its candidates
     through [Response]), so a stale board key, a wrong cache row or a
     wrong candidate list at this size stops agreeing at the step it
     happens.  A checked run must agree at every step, never degrade, and
     end on the graph the unchecked run ends on. *)
  let oracle ~n ~max_steps ~cache_budget =
    let timed sentinel =
      Gc.compact ();
      let t0 = Clock.monotonic () in
      let r = run_bounded ~sentinel ~n ~max_steps ~cache_budget () in
      ({ wall_s = Clock.monotonic () -. t0; steps = r.Engine.steps }, r)
    in
    let checked_run, checked = timed Sentinel.Every_step in
    let unchecked_run, unchecked = timed Sentinel.Off in
    let report = checked.Engine.sentinel in
    let o =
      {
        or_n = n;
        or_budget = cache_budget;
        or_max_steps = max_steps;
        or_checked_run = checked_run;
        or_unchecked_run = unchecked_run;
        or_checked = report.Sentinel.checked;
        or_incidents = List.length report.Sentinel.incidents;
        or_degraded = report.Sentinel.degraded_at <> None;
        or_same_final = Graph.equal checked.Engine.final unchecked.Engine.final;
        or_peak_tables =
          max checked.Engine.residency.Distcache.peak
            unchecked.Engine.residency.Distcache.peak;
      }
    in
    Printf.printf
      "  oracle n=%d%s: %d/%d steps checked in %.1f s (unchecked %.1f s), %d \
       incidents, %s, %s final graph, peak %d tables\n%!"
      n
      (match cache_budget with
      | Some b -> Printf.sprintf " budget=%d" b
      | None -> "")
      o.or_checked o.or_checked_run.steps checked_run.wall_s
      unchecked_run.wall_s o.or_incidents
      (if o.or_degraded then "degraded" else "never degraded")
      (if o.or_same_final then "same" else "different")
      o.or_peak_tables;
    o
  in
  let oracle_runs =
    let unbudgeted = oracle ~n ~max_steps:20 ~cache_budget:None in
    [ unbudgeted; oracle ~n:2000 ~max_steps:8 ~cache_budget:(Some large_budget) ]
  in
  (* One run of the same game to convergence (under [Engine.config]'s
     default step bound) from an instance pinned whatever [--seed] says
     (about 4,000 steps), then the naive [Response.is_unhappy] on 50
     seeded agents of its sink: each must be happy. *)
  let converged =
    Gc.compact ();
    let t0 = Clock.monotonic () in
    let r =
      run_bounded ~gen_seed:[| 1 |] ~rng_seed:[| 1; 2 |] ~n ~cache_budget:None
        ()
    in
    let run = { wall_s = Clock.monotonic () -. t0; steps = r.Engine.steps } in
    let agents = Array.init n Fun.id in
    let rng = Random.State.make [| 3 |] in
    let probes = 50 in
    for i = 0 to probes - 1 do
      let j = i + Random.State.int rng (n - i) in
      let x = agents.(i) in
      agents.(i) <- agents.(j);
      agents.(j) <- x
    done;
    let ws = Paths.Workspace.create n in
    let t1 = Clock.monotonic () in
    let unhappy =
      List.length
        (List.filter
           (Response.is_unhappy ~ws (model_of n) r.Engine.final)
           (Array.to_list (Array.sub agents 0 probes)))
    in
    let c =
      {
        cv_run = run;
        cv_converged = Engine.converged r;
        cv_probes = probes;
        cv_unhappy = unhappy;
        cv_probe_s = Clock.monotonic () -. t1;
      }
    in
    Printf.printf
      "  converged run n=%d m=%d: %s after %d steps, %.1f s; %d/%d probed \
       agents unhappy (%.1f s)\n%!"
      n (4 * n)
      (if c.cv_converged then "converged" else "not converged")
      run.steps run.wall_s unhappy probes c.cv_probe_s;
    c
  in
  check "n=10000 run stays within the cache budget (+pin slack)"
    within_budget;
  check "n=10000 audited rerun clean, same final graph" audit_clean;
  List.iter
    (fun o ->
      check
        (Printf.sprintf "n=%d oracle: every step checked, no incident, same \
           final graph" o.or_n)
        (o.or_checked = o.or_max_steps
        && o.or_checked_run.steps = o.or_max_steps
        && o.or_incidents = 0 && (not o.or_degraded) && o.or_same_final);
      Option.iter
        (fun budget ->
          check
            (Printf.sprintf "n=%d oracle runs stay within the cache budget \
               (+pin slack)" o.or_n)
            (o.or_peak_tables <= budget + pin_slack))
        o.or_budget)
    oracle_runs;
  check "n=1000 run converged and every probed agent is happy"
    (converged.cv_converged && converged.cv_unhappy = 0);
  scaling_report :=
    Some
      {
        sc_n = n;
        sc_m = 4 * n;
        sc_alpha = Ncg_rational.Q.to_string (Ncg_rational.Q.make n 4);
        sc_max_steps = max_steps;
        sc_run = run;
        sc_large_n = large_n;
        sc_large_budget = large_budget;
        sc_large_max_steps = large_steps;
        sc_large = large;
        sc_large_peak_tables = residency.Distcache.peak;
        sc_large_peak_bytes = residency.Distcache.peak_bytes;
        sc_large_within_budget = within_budget;
        sc_large_peak_rss_mib = peak_rss;
        sc_large_fills = large_cache.Distcache.fills;
        sc_large_audit_clean = audit_clean;
        sc_oracle = oracle_runs;
        sc_converged = converged;
      }

(* ------------------------------------------------------------------ *)
(* Fleet vs single process                                             *)
(* ------------------------------------------------------------------ *)

type fleet_report = {
  fl_cmd : string;
  fl_n : int;
  fl_trials : int;
  fl_seed : int;
  fl_workers : int;
  fl_shards : int;
  single_wall : float;
  fleet_wall : float;
  fl_identical : bool;
}

let fleet_report : fleet_report option ref = ref None

(* Path to the built ncg_sim binary (--sim); the fleet leg spawns it. *)
let sim_binary : string option ref = ref None

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
  | exception Sys_error _ -> ""

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let remove_dir_quietly dir =
  (match Sys.readdir dir with
  | names ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        names
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Process-level supervision is not free: leases, heartbeats and per-shard
   checkpoints all cost wall-clock.  This leg prices it — a fleet of W
   worker subprocesses against one process running W domains on the same
   pinned sweep point — and checks the merged statistics are bit-identical
   and the overhead stays within 1.5x.  One fig11 point, equal total
   workers. *)
let fleet_leg scale =
  match !sim_binary with
  | None ->
      print_endline
        "  skipped (pass --sim path/to/ncg_sim.exe to run the fleet leg)"
  | Some sim ->
      (* pinned like fastpath: the overhead claim only makes sense at a
         fixed workload, whatever --trials says *)
      let cmd = "fig11" and n = 40 and trials = 120 in
      let seed = scale.seed in
      let workers =
        max 2 (min 4 (Ncg_parallel.Pool.recommended_domains ()))
      in
      let shards = 2 * workers in
      let point =
        match Fleet.point_spec cmd ~n with
        | Some p -> p
        | None -> failwith "unknown fleet point"
      in
      let t0 = Clock.monotonic () in
      let single =
        Runner.run ~domains:workers ~seed ~trials point.Fleet.spec
      in
      let single_wall = Clock.monotonic () -. t0 in
      let dir = Filename.temp_file "ncg_bench_fleet" ".d" in
      Sys.remove dir;
      let out = Filename.temp_file "ncg_bench_fleet" ".out" in
      let out_fd =
        Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644
      in
      let t1 = Clock.monotonic () in
      let pid =
        Unix.create_process sim
          [|
            sim; "fleet"; "--cmd"; cmd; "-n"; string_of_int n; "--trials";
            string_of_int trials; "--seed"; string_of_int seed; "--workers";
            string_of_int workers; "--shards"; string_of_int shards; "--dir";
            dir;
          |]
          Unix.stdin out_fd Unix.stderr
      in
      Unix.close out_fd;
      let _, status = Unix.waitpid [] pid in
      let fleet_wall = Clock.monotonic () -. t1 in
      let text = read_file out in
      let expected = Format.asprintf "%a" Stats.pp single in
      let identical = contains text ("summary: " ^ expected) in
      remove_dir_quietly dir;
      (try Sys.remove out with Sys_error _ -> ());
      let ratio =
        if single_wall > 0.0 then fleet_wall /. single_wall else 0.0
      in
      Printf.printf
        "  %s n=%d trials=%d, %d workers / %d shards\n\
        \  single process: %7.3f s\n\
        \  fleet:          %7.3f s  (%.2fx)\n"
        cmd n trials workers shards single_wall fleet_wall ratio;
      check "fleet completed cleanly" (status = Unix.WEXITED 0);
      check "fleet statistics bit-identical to the single process" identical;
      check "supervision overhead within 1.5x" (ratio <= 1.5);
      fleet_report :=
        Some
          {
            fl_cmd = cmd;
            fl_n = n;
            fl_trials = trials;
            fl_seed = seed;
            fl_workers = workers;
            fl_shards = shards;
            single_wall;
            fleet_wall;
            fl_identical = identical;
          }

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)
(* ------------------------------------------------------------------ *)

let ratio num den = Json.Float (if den > 0.0 then num /. den else 0.0)

let sample_json s =
  Json.Obj
    [
      ("wall_s", Json.Float s.wall_s);
      ("steps", Json.Int s.steps);
      ("steps_per_s", ratio (float_of_int s.steps) s.wall_s);
    ]

let write_json path ~scale ~timings =
  let opt f = function None -> Json.Null | Some r -> f r in
  let fastpath_json =
    opt
      (fun r ->
        Json.Obj
          [
            ("game", Json.Str "SUM-GBG");
            ("policy", Json.Str "max-cost");
            ("tie_break", Json.Str "prefer-deletion");
            ("n", Json.Int r.fp_n);
            ("m", Json.Int r.fp_m);
            ("alpha", Json.Str r.fp_alpha);
            ("trials", Json.Int r.fp_trials);
            ("reference", sample_json r.reference);
            ("fast", sample_json r.fast);
            ("fast_sentinel", sample_json r.fast_sentinel);
            ("sentinel_rate", Json.Float 0.01);
            ("speedup", ratio r.reference.wall_s r.fast.wall_s);
            ( "sentinel_speedup",
              ratio r.reference.wall_s r.fast_sentinel.wall_s );
            ( "cache",
              Json.Obj
                [
                  ("kept", Json.Int r.fp_cache.Distcache.kept);
                  ("repaired", Json.Int r.fp_cache.Distcache.repaired);
                  ("rebuilt", Json.Int r.fp_cache.Distcache.rebuilt);
                  ("fills", Json.Int r.fp_cache.Distcache.fills);
                  ("evicted", Json.Int r.fp_cache.Distcache.evicted);
                ] );
            ("identical_trajectories", Json.Bool r.identical);
          ])
      !fastpath_report
  in
  let scaling_json =
    opt
      (fun r ->
        Json.Obj
          [
            ("game", Json.Str "SUM-GBG");
            ("policy", Json.Str "max-cost");
            ("tie_break", Json.Str "prefer-deletion");
            ("n", Json.Int r.sc_n);
            ("m", Json.Int r.sc_m);
            ("alpha", Json.Str r.sc_alpha);
            ("max_steps", Json.Int r.sc_max_steps);
            ("run", sample_json r.sc_run);
            ( "large",
              Json.Obj
                [
                  ("n", Json.Int r.sc_large_n);
                  ("cache_budget_tables", Json.Int r.sc_large_budget);
                  ("max_steps", Json.Int r.sc_large_max_steps);
                  ("run", sample_json r.sc_large);
                  ("peak_tables", Json.Int r.sc_large_peak_tables);
                  ("peak_bytes", Json.Int r.sc_large_peak_bytes);
                  ("within_budget", Json.Bool r.sc_large_within_budget);
                  ( "peak_rss_mib",
                    opt (fun f -> Json.Float f) r.sc_large_peak_rss_mib );
                  ("fills", Json.Int r.sc_large_fills);
                  ("audit_clean", Json.Bool r.sc_large_audit_clean);
                ] );
            ( "oracle",
              Json.List
                (List.map
                   (fun o ->
                     Json.Obj
                       [
                         ("n", Json.Int o.or_n);
                         ( "cache_budget_tables",
                           opt (fun b -> Json.Int b) o.or_budget );
                         ("max_steps", Json.Int o.or_max_steps);
                         ("checked_run", sample_json o.or_checked_run);
                         ("unchecked_run", sample_json o.or_unchecked_run);
                         ("checked", Json.Int o.or_checked);
                         ("incidents", Json.Int o.or_incidents);
                         ("degraded", Json.Bool o.or_degraded);
                         ("same_final_graph", Json.Bool o.or_same_final);
                         ("peak_tables", Json.Int o.or_peak_tables);
                       ])
                   r.sc_oracle) );
            ( "converged",
              let c = r.sc_converged in
              Json.Obj
                [
                  ("run", sample_json c.cv_run);
                  ("converged", Json.Bool c.cv_converged);
                  ("probes", Json.Int c.cv_probes);
                  ("unhappy", Json.Int c.cv_unhappy);
                  ("probe_wall_s", Json.Float c.cv_probe_s);
                ] );
          ])
      !scaling_report
  in
  let fleet_json =
    opt
      (fun r ->
        Json.Obj
          [
            ("cmd", Json.Str r.fl_cmd);
            ("n", Json.Int r.fl_n);
            ("trials", Json.Int r.fl_trials);
            ("seed", Json.Int r.fl_seed);
            ("workers", Json.Int r.fl_workers);
            ("shards", Json.Int r.fl_shards);
            ("single_wall_s", Json.Float r.single_wall);
            ("fleet_wall_s", Json.Float r.fleet_wall);
            ("overhead_ratio", ratio r.fleet_wall r.single_wall);
            ("identical_statistics", Json.Bool r.fl_identical);
          ])
      !fleet_report
  in
  let experiments =
    Json.List
      (List.rev_map
         (fun (id, title, wall) ->
           Json.Obj
             [
               ("id", Json.Str id);
               ("title", Json.Str title);
               ("wall_s", Json.Float wall);
             ])
         timings)
  in
  let doc =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str "ncg-bench/1");
           ( "config",
             Json.Obj
               [
                 ("trials", Json.Int scale.trials);
                 ("seed", Json.Int scale.seed);
                 ("timing_best_of", Json.Int timing_k);
               ] );
           ("experiments", experiments);
           ("fastpath", fastpath_json);
           ("scaling", scaling_json);
           ("fleet", fleet_json);
         ])
  in
  let oc = open_out path in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Registry and CLI                                                    *)
(* ------------------------------------------------------------------ *)

let experiments : (string * string * (scale -> unit)) list =
  [
    (* First, so the peak RSS read after its n=10000 run is that run's
       process high-water mark, not another leg's. *)
    ( "scaling",
      "large n: cost board at n=1000, bounded n=10000, large-n oracle",
      scaling_leg );
    ("fastpath", "fast engine vs reference oracle (SUM-GBG n=100)", fastpath);
    ("fleet", "fleet vs single process (supervision overhead)", fleet_leg);
  ]

let () =
  let only = ref [] in
  let trials = ref 10 in
  let seed = ref 2013 in
  let json = ref None in
  let ids = List.map (fun (id, _, _) -> id) experiments in
  let usage_error what =
    Printf.eprintf
      "%s\n\
       usage: main.exe [--only ID]* [--trials T] [--seed S] [--json PATH] \
       [--sim NCG_SIM]\n\
       ids: %s\n"
      what (String.concat " " ids);
    exit 2
  in
  (* An integer flag's value, or a usage error naming the flag. *)
  let int_arg flag ?(min = min_int) v =
    match int_of_string_opt v with
    | Some i when i >= min -> i
    | Some _ | None ->
        usage_error
          (Printf.sprintf "%s expects an integer%s, got %S" flag
             (if min = min_int then "" else Printf.sprintf " >= %d" min)
             v)
  in
  let rec parse = function
    | [] -> ()
    | "--only" :: id :: rest ->
        if not (List.mem id ids) then usage_error ("unknown experiment id " ^ id);
        only := id :: !only;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--sim" :: path :: rest ->
        sim_binary := Some path;
        parse rest
    | "--trials" :: t :: rest ->
        trials := int_arg "--trials" ~min:1 t;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_arg "--seed" s;
        parse rest
    | arg :: _ -> usage_error ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale = { trials = !trials; seed = !seed } in
  let selected =
    match !only with
    | [] -> experiments
    | ids -> List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  Printf.printf "Bench: %d legs, trials=%d, seed=%d\n" (List.length selected)
    !trials !seed;
  let timings = ref [] in
  List.iter
    (fun (id, title, run) ->
      Printf.printf "\n=== [%s] %s ===\n%!" id title;
      let t0 = Clock.monotonic () in
      run scale;
      timings := (id, title, Clock.monotonic () -. t0) :: !timings)
    selected;
  match !json with
  | None -> ()
  | Some path -> write_json path ~scale ~timings:!timings
