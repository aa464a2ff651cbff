(* Bench harness: one target per paper table/figure (see DESIGN.md's
   per-experiment index) plus Bechamel micro-benchmarks.

     dune exec bench/main.exe                 -- everything, laptop scale
     dune exec bench/main.exe -- --only fig7  -- a single experiment
     dune exec bench/main.exe -- --trials 200 --nmax 100
     dune exec bench/main.exe -- --paper      -- the paper's full grid

   Absolute step counts need not match the paper (different RNG, tie
   breaks); the checked properties are the paper's qualitative envelopes:
   linear convergence, policy orderings, cycle-freeness on random
   instances, and the gadget cycles. *)

open Ncg_graph
open Ncg_game
open Ncg_core
open Ncg_experiments
module I = Ncg_instances.Instance

type scale = { trials : int; ns : int list; seed : int }

let section title = Printf.printf "\n=== %s ===\n%!" title

let check name ok =
  Printf.printf "  [%s] %s\n%!" (if ok then "ok" else "FAIL") name

(* ------------------------------------------------------------------ *)
(* Gadget replays                                                      *)
(* ------------------------------------------------------------------ *)

let replay_instance (inst : I.t) =
  Printf.printf "%s\n  %s\n" inst.I.name inst.I.description;
  let g = Graph.copy inst.I.initial in
  List.iteri
    (fun i (s : I.step) ->
      let e = Response.evaluate inst.I.model g s.I.move in
      Printf.printf "  step %d: %-24s cost %s -> %s\n" (i + 1)
        (Move.to_string s.I.move)
        (Cost.to_string e.Response.before)
        (Cost.to_string e.Response.after);
      ignore (Move.apply g s.I.move))
    inst.I.steps;
  let failures = I.Verify.run inst in
  check
    (Printf.sprintf "%d claims verified, cycle closes"
       (List.fold_left
          (fun n (s : I.step) -> n + List.length s.I.claims)
          0 inst.I.steps))
    (failures = []);
  List.iter
    (fun f ->
      Printf.printf "    %s\n" (Format.asprintf "%a" I.Verify.pp_failure f))
    failures

let gadget id name =
  ( id,
    "gadget replay: " ^ name,
    fun _scale ->
      match Ncg_instances.Catalog.find name with
      | None -> Printf.printf "unknown instance %s\n" name
      | Some inst -> replay_instance inst )

(* ------------------------------------------------------------------ *)
(* Tree dynamics (Thm 2.1, Thm 2.11, Cor 3.2, Fig. 1)                  *)
(* ------------------------------------------------------------------ *)

let run_tree_experiment ~dist ~game ~policy ~label scale bound pp_bound =
  section label;
  Printf.printf "  %6s %10s %10s %12s\n" "n" "avg" "max" pp_bound;
  let all_ok = ref true in
  List.iter
    (fun n ->
      let model = Model.make game dist n in
      let spec =
        Runner.spec ~policy model (fun rng -> Gen.random_tree rng n)
      in
      let s = Runner.run ~seed:scale.seed ~trials:scale.trials spec in
      let b = bound n in
      if float_of_int s.Stats.max_steps > b then all_ok := false;
      Printf.printf "  %6d %10.1f %10d %12.1f\n" n s.Stats.avg_steps
        s.Stats.max_steps b)
    scale.ns;
  check "all runs within the theoretical bound" !all_ok

let fig1 scale =
  section "Fig. 1: MAX-SG on the path P_n under the max cost policy";
  let model n = Model.make Model.Sg Model.Max n in
  List.iter
    (fun n ->
      let cfg =
        Engine.config ~policy:Policy.Max_cost ~detect_cycles:true (model n)
      in
      let r = Engine.run cfg (Gen.path n) in
      Printf.printf "  n=%3d: %4d moves -> %s\n" n r.Engine.steps
        (match Theory.tree_shape r.Engine.final with
        | Theory.Star -> "star"
        | Theory.Double_star -> "double star"
        | Theory.Other_tree -> "tree (diameter > 3!)"
        | Theory.Not_a_tree -> "not a tree!"))
    (List.filter (fun n -> n >= 4) (9 :: scale.ns));
  check "paper's n=9 example converges"
    (let r =
       Engine.run
         (Engine.config ~policy:Policy.Max_cost (model 9))
         (Gen.path 9)
     in
     Engine.converged r)

let thm21 scale =
  run_tree_experiment ~dist:Model.Max ~game:Model.Sg
    ~policy:Policy.Random_unhappy
    ~label:"Thm 2.1: MAX-SG on random trees, random policy, O(n^3) bound"
    scale
    (fun n -> float_of_int (Theory.thm21_step_bound n))
    "n^3 bound"

let thm211 scale =
  run_tree_experiment ~dist:Model.Max ~game:Model.Sg ~policy:Policy.Max_cost
    ~label:"Thm 2.11: MAX-SG on random trees, max cost policy, O(n log n)"
    scale
    (fun n -> (4.0 *. Theory.nlogn n) +. 16.0)
    "~4 n log n"

let cor32 scale =
  run_tree_experiment ~dist:Model.Sum ~game:Model.Asg ~policy:Policy.Max_cost
    ~label:"Cor 3.2: SUM-ASG on random trees, max cost policy, exact bound"
    scale
    (fun n -> float_of_int (Theory.cor32_sum_asg_bound n))
    "n+ceil(n/2)-5"

(* ------------------------------------------------------------------ *)
(* Figures 7, 8, 11, 12, 13, 14                                        *)
(* ------------------------------------------------------------------ *)

(* One leg per figure of the table: the avg-steps table, the cycle count
   and the envelope [bound * n + 10] on every run. *)
let figure name title bound scale =
  section title;
  let curves =
    Figure.sweep ~seed:scale.seed ~ns:scale.ns ~trials:scale.trials
      (Figure.find name)
  in
  print_string (Series.to_table ~value:`Avg curves);
  Printf.printf "  (table shows avg steps; max over all runs: %.2f n)\n"
    (Series.max_over curves);
  let cycles =
    List.fold_left
      (fun acc (c : Series.curve) ->
        List.fold_left
          (fun acc (p : Series.point) ->
            acc + p.Series.summary.Stats.cycles)
          acc c.Series.points)
      0 curves
  in
  check "no best-response cycle in any trial" (cycles = 0);
  let env_label = Printf.sprintf "every run within ~%.0fn steps" bound in
  let env n = (bound *. float_of_int n) +. 10. in
  check env_label (List.for_all snd (Series.envelope env env_label curves))

(* ------------------------------------------------------------------ *)
(* Section 4.2.2 phases; Secs 3.4/4.2 cycle hunt                       *)
(* ------------------------------------------------------------------ *)

let phases scale =
  section
    "Sec. 4.2.2: operation phases of a typical SUM-GBG run (m=4n, a=n/4)";
  let n = max 30 (List.fold_left max 0 scale.ns) in
  let rng = Random.State.make [| scale.seed |] in
  let model =
    Model.make ~alpha:(Ncg_rational.Q.make n 4) Model.Gbg Model.Sum n
  in
  let g = Gen.random_m_edges rng n (4 * n) in
  let cfg =
    Engine.config ~policy:Policy.Random_unhappy
      ~tie_break:Engine.Prefer_deletion model
  in
  let r = Engine.run ~rng cfg g in
  Printf.printf "  n=%d, %d steps; thirds of the run:\n" n r.Engine.steps;
  Array.iteri
    (fun i c ->
      Printf.printf "    phase %d: %s\n" (i + 1)
        (Format.asprintf "%a" Trajectory.pp_op_counts c))
    (Trajectory.phases 3 r.Engine.history);
  let c = Trajectory.count_ops r.Engine.history in
  check "first phase deletion-heavy"
    (let p = (Trajectory.phases 3 r.Engine.history).(0) in
     p.Trajectory.deletes * 2 >= Trajectory.total p);
  check "run contains deletions and swaps"
    (c.Trajectory.deletes > 0 && c.Trajectory.swaps > 0)

let nocycle scale =
  section
    "Secs. 3.4/4.2: cycle hunt over random instances (paper: none found)";
  let trials = max 50 scale.trials in
  let count = ref 0 and cycles = ref 0 in
  let rng = Random.State.make [| scale.seed; 77 |] in
  for _ = 1 to trials do
    let n = 10 + Random.State.int rng 21 in
    let k = 1 + Random.State.int rng 3 in
    let g = Gen.random_budget_network rng n k in
    let dist = if Random.State.bool rng then Model.Sum else Model.Max in
    let model = Model.make Model.Asg dist n in
    let cfg =
      Engine.config ~policy:Policy.Random_unhappy ~detect_cycles:true
        ~record_history:false model
    in
    let r = Engine.run ~rng cfg g in
    incr count;
    match r.Engine.reason with
    | Engine.Cycle_detected _ -> incr cycles
    | Engine.Converged | Engine.Step_limit | Engine.Time_limit
    | Engine.Invariant_violation _ -> ()
  done;
  Printf.printf "  %d random bounded-budget ASG runs, %d cycles detected\n"
    !count !cycles;
  check "no cycle on any random instance" (!cycles = 0)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro _scale =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let rng = Random.State.make [| 7 |] in
  let g100 = Gen.random_m_edges rng 100 400 in
  let ws = Paths.Workspace.create 100 in
  let sum_model = Model.make Model.Asg Model.Sum 100 in
  let gbg_model =
    Model.make ~alpha:(Ncg_rational.Q.of_int 25) Model.Gbg Model.Sum 100
  in
  let q = Ncg_rational.Q.make 15 2 in
  let c1 = Cost.connected ~edge_units:3 ~dist:241 in
  let c2 = Cost.connected ~edge_units:4 ~dist:228 in
  let tests =
    Test.make_grouped ~name:"micro"
      [
        Test.make ~name:"bfs_profile_n100"
          (Staged.stage (fun () -> Paths.Workspace.profile ws g100 0));
        Test.make ~name:"cost_compare_exact"
          (Staged.stage (fun () -> Cost.compare ~unit_price:q c1 c2));
        Test.make ~name:"best_swap_asg_n100"
          (Staged.stage (fun () -> Response.best_moves ~ws sum_model g100 0));
        Test.make ~name:"best_move_gbg_n100"
          (Staged.stage (fun () -> Response.best_moves ~ws gbg_model g100 0));
        Test.make ~name:"is_unhappy_asg_n100"
          (Staged.stage (fun () -> Response.is_unhappy ~ws sum_model g100 0));
        Test.make ~name:"sorted_cost_vector_n100"
          (Staged.stage (fun () -> Agents.sorted_cost_vector sum_model g100));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> Printf.printf "  %-34s %12.0f ns/run\n" name t
          | Some [] | None -> Printf.printf "  %-34s (no estimate)\n" name)
        tbl)
    merged

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
  fp_scan_domains : int;
  reference : engine_sample;
  fast : engine_sample;
  fast_sentinel : engine_sample;
  fast_parallel : engine_sample;
  identical : bool;
}

let fastpath_report : fastpath_report option ref = ref None

let fastpath scale =
  section
    "Fast path vs reference: SUM-GBG sweep, n=100, m=4n, a=n/4, max cost";
  (* The acceptance configuration is pinned at n=100 regardless of --nmax:
     the speedup claim in BENCH.json is only meaningful at a fixed size. *)
  let n = 100 in
  let m = 4 * n in
  let alpha = Ncg_rational.Q.make n 4 in
  let model = Model.make ~alpha Model.Gbg Model.Sum n in
  let trials = max 1 (min 3 scale.trials) in
  (* at least 2 so the domain fan-out is really exercised, even on 1 core *)
  let domains = max 2 (Ncg_parallel.Pool.recommended_domains ()) in
  let cfg scan_domains =
    Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
      ~scan_domains model
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
    time (fun seed g -> Reference.run ~rng:(rng seed) (cfg 1) g)
  in
  let fast, fast_runs =
    time (fun seed g -> Engine.run ~rng:(rng seed) (cfg 1) g)
  in
  (* the self-healing deployment configuration: 1% of steps shadow-checked
     against the naive machinery.  Must keep the speedup floor. *)
  let sentinel_cfg =
    Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
      ~sentinel:(Sentinel.Sampled 0.01) ~scan_domains:1 model
  in
  let fast_sentinel, sent_runs =
    time (fun seed g -> Engine.run ~rng:(rng seed) sentinel_cfg g)
  in
  let fast_parallel, par_runs =
    time (fun seed g -> Engine.run ~rng:(rng seed) (cfg domains) g)
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
         fast_runs par_runs
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
  let per_s { wall_s; steps } =
    if wall_s > 0.0 then float_of_int steps /. wall_s else 0.0
  in
  let show label s =
    Printf.printf "  %-22s %4d steps  %7.3f s  %8.0f steps/s\n" label s.steps
      s.wall_s (per_s s)
  in
  show "reference (naive)" reference;
  show "fast (1 domain)" fast;
  show "fast + sentinel 1%" fast_sentinel;
  show (Printf.sprintf "fast (%d domains)" domains) fast_parallel;
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
  check "fast engine at least 3x faster" (speedup >= 3.0);
  check "1% sentinel keeps the 3x floor" (sentinel_speedup >= 3.0);
  fastpath_report :=
    Some
      {
        fp_n = n;
        fp_m = m;
        fp_alpha = Ncg_rational.Q.to_string alpha;
        fp_trials = trials;
        fp_scan_domains = domains;
        reference;
        fast;
        fast_sentinel;
        fast_parallel;
        identical;
      }

(* ------------------------------------------------------------------ *)
(* Incremental distance cache vs per-step tables                       *)
(* ------------------------------------------------------------------ *)

type incremental_report = {
  inc_n : int;
  inc_m : int;
  inc_alpha : string;
  inc_trials : int;
  inc_plain : engine_sample;
  inc_cached : engine_sample;
  inc_stats : Distcache.stats;
  inc_identical : bool;
  inc_scaling : (int * float * float) list;  (* n, plain/s, cached/s *)
}

let incremental_report : incremental_report option ref = ref None

let incremental_leg scale =
  section
    "Incremental cache vs per-step tables: SUM-GBG, m=4n, a=n/4, max cost";
  (* Both sides are the *fast* engine; the only difference is whether the
     distance tables survive across steps (kept/repaired by the cache) or
     are recomputed from scratch each step.  Pinned at n=100 like the
     fastpath leg; an n=300 row shows how the gap scales. *)
  let bench n trials =
    let m = 4 * n in
    let alpha = Ncg_rational.Q.make n 4 in
    let model = Model.make ~alpha Model.Gbg Model.Sum n in
    let cfg incremental =
      Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
        ~incremental model
    in
    let rng seed = Random.State.make [| seed; 0xfa57 |] in
    let time incremental =
      time_best (fun () ->
          List.init trials (fun i ->
              let seed = scale.seed + i in
              let g = Gen.random_m_edges (Random.State.make [| seed |]) n m in
              Engine.run ~rng:(rng seed) (cfg incremental) g))
    in
    let plain, plain_runs = time false in
    let cached, cached_runs = time true in
    let identical =
      List.for_all2
        (fun (a : Engine.result) (b : Engine.result) ->
          a.Engine.steps = b.Engine.steps
          && a.Engine.reason = b.Engine.reason
          && Graph.equal a.Engine.final b.Engine.final)
        plain_runs cached_runs
    in
    let stats =
      List.fold_left
        (fun acc (r : Engine.result) ->
          Distcache.
            {
              kept = acc.kept + r.Engine.cache.kept;
              repaired = acc.repaired + r.Engine.cache.repaired;
              rebuilt = acc.rebuilt + r.Engine.cache.rebuilt;
              fills = acc.fills + r.Engine.cache.fills;
              evicted = acc.evicted + r.Engine.cache.evicted;
            })
        Distcache.zero_stats cached_runs
    in
    (plain, cached, stats, identical)
  in
  let per_s { wall_s; steps } =
    if wall_s > 0.0 then float_of_int steps /. wall_s else 0.0
  in
  let n = 100 in
  let trials = max 1 (min 3 scale.trials) in
  let plain, cached, stats, identical = bench n trials in
  let show label s =
    Printf.printf "  %-22s %4d steps  %7.3f s  %8.0f steps/s\n" label s.steps
      s.wall_s (per_s s)
  in
  show "per-step tables" plain;
  show "incremental cache" cached;
  Printf.printf "  cache: %d kept, %d repaired, %d rebuilt, %d fills\n"
    stats.Distcache.kept stats.Distcache.repaired stats.Distcache.rebuilt
    stats.Distcache.fills;
  let speedup = if cached.wall_s > 0.0 then plain.wall_s /. cached.wall_s
    else 0.0
  in
  Printf.printf "  speedup: %.2fx\n" speedup;
  (* scaling row: the cache's edge grows with n (each avoided refill is a
     whole BFS), so one n=300 point anchors the trend *)
  let scaling =
    List.map
      (fun n ->
        let plain, cached, _, ok = bench n 1 in
        let row = (n, per_s plain, per_s cached) in
        Printf.printf "  n=%-4d %8.0f -> %8.0f steps/s (%.2fx)%s\n" n
          (per_s plain) (per_s cached)
          (if plain.wall_s > 0.0 && cached.wall_s > 0.0 then
             plain.wall_s /. cached.wall_s
           else 0.0)
          (if ok then "" else "  DIVERGED");
        row)
      [ 300 ]
  in
  check "identical trajectories with and without the cache" identical;
  check "cache kept or repaired tables" (stats.Distcache.kept > 0);
  check "incremental cache at least 1.5x over per-step tables"
    (speedup >= 1.5);
  incremental_report :=
    Some
      {
        inc_n = n;
        inc_m = 4 * n;
        inc_alpha = Ncg_rational.Q.to_string (Ncg_rational.Q.make n 4);
        inc_trials = trials;
        inc_plain = plain;
        inc_cached = cached;
        inc_stats = stats;
        inc_identical = identical;
        inc_scaling = scaling;
      }

(* ------------------------------------------------------------------ *)
(* Output-sensitive selection at scale                                 *)
(* ------------------------------------------------------------------ *)

type scaling_report = {
  sc_n : int;
  sc_m : int;
  sc_alpha : string;
  sc_max_steps : int;
  sc_fullscan : engine_sample;
  sc_sublinear : engine_sample;
  sc_identical : bool;
  sc_large_n : int;
  sc_large_budget : int;
  sc_large_max_steps : int;
  sc_large : engine_sample;
  sc_large_peak_tables : int;
  sc_large_peak_bytes : int;
  sc_large_within_budget : bool;
  sc_large_peak_rss_mib : float option;
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

let scaling_leg scale =
  section
    "Output-sensitive selection: SUM-GBG max cost, n=1000 sublinear vs \
     full-scan; bounded n=10000 under a cache budget";
  (* Pinned sizes like the other speedup legs.  The n=1000 runs are
     step-bounded so neither side converges inside the bound and both do
     the same number of steps — the claim is per-step selection cost, not
     convergence time.  The n=10000 run demonstrates the memory bound: a
     64-table budget caps the cache near 5 MiB where an unbounded cache
     would hold all n tables (~800 MiB of distance rows). *)
  let run_bounded ~n ~max_steps ~sublinear ~cache_budget () =
    let m = 4 * n in
    let alpha = Ncg_rational.Q.make n 4 in
    let model = Model.make ~alpha Model.Gbg Model.Sum n in
    let cfg =
      Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
        ~max_steps ~record_history:false ~sublinear ?cache_budget model
    in
    let g = Gen.random_m_edges (Random.State.make [| scale.seed |]) n m in
    Engine.run ~rng:(Random.State.make [| scale.seed; 0xfa57 |]) cfg g
  in
  let n = 1000 and max_steps = 250 in
  (* This leg asserts a 4x floor on a ~5x measurement (observed 4.2-5.6x
     across machine states: the full-scan side is BFS/memory-bandwidth
     bound and anti-correlates with the sublinear side under load), so
     its timing
     must be more careful than the other legs': best-of-k alone is not
     enough, because each variant's k samples run back-to-back, and load
     on a shared machine drifts on a seconds-to-minutes scale — a slow
     window can land entirely on one side of the ratio.  Interleave the
     samples (full, sublinear, full, sublinear, ...) so both variants
     see the same mixture of conditions, then keep each variant's
     least-contended pass. *)
  let scaling_k = 6 in
  let sample ~sublinear () =
    Gc.compact ();
    let t0 = Clock.monotonic () in
    let r = run_bounded ~n ~max_steps ~sublinear ~cache_budget:None () in
    let wall = Clock.monotonic () -. t0 in
    ({ wall_s = wall; steps = r.Engine.steps }, [ r ])
  in
  let keep_best best candidate =
    let rate ({ wall_s; steps }, _) =
      if wall_s > 0.0 then float_of_int steps /. wall_s else 0.0
    in
    if rate candidate > rate best then candidate else best
  in
  let full_best = ref (sample ~sublinear:false ()) in
  let sub_best = ref (sample ~sublinear:true ()) in
  for _ = 2 to scaling_k do
    full_best := keep_best !full_best (sample ~sublinear:false ());
    sub_best := keep_best !sub_best (sample ~sublinear:true ())
  done;
  let full, full_runs = !full_best and sub, sub_runs = !sub_best in
  let identical =
    List.for_all2
      (fun (a : Engine.result) (b : Engine.result) ->
        a.Engine.steps = b.Engine.steps
        && a.Engine.reason = b.Engine.reason
        && Graph.equal a.Engine.final b.Engine.final)
      full_runs sub_runs
  in
  let per_s { wall_s; steps } =
    if wall_s > 0.0 then float_of_int steps /. wall_s else 0.0
  in
  let show label s =
    Printf.printf "  %-22s %4d steps  %7.3f s  %8.0f steps/s\n" label s.steps
      s.wall_s (per_s s)
  in
  show "full-scan select" full;
  show "sublinear select" sub;
  let speedup = if sub.wall_s > 0.0 then full.wall_s /. sub.wall_s else 0.0 in
  Printf.printf "  speedup: %.2fx\n" speedup;
  (* n=10000 under a hard residency cap: the point is completing at all
     within a fixed memory envelope, so a handful of steps suffices. *)
  let large_n = 10_000 and large_budget = 64 and large_steps = 10 in
  (* Single pass: the assertion is completion within the memory envelope,
     not a rate, and an n=10000 pass is the most expensive part of this
     leg — best-of-k would double it for nothing. *)
  let large, residency =
    Gc.compact ();
    let t0 = Clock.monotonic () in
    let r =
      run_bounded ~n:large_n ~max_steps:large_steps ~sublinear:true
        ~cache_budget:(Some large_budget) ()
    in
    let wall = Clock.monotonic () -. t0 in
    ({ wall_s = wall; steps = r.Engine.steps }, r.Engine.residency)
  in
  (* Whole-process peak, read right after the largest run: the cache's
     residency alone misses the graphs (the initial network and the
     engine's working copy), where n² words per matrix would dominate. *)
  let peak_rss = peak_rss_mib () in
  (* [install] admits the new table before evicting, and pinned tables
     (the applied move's endpoints) are exempt while held — so the peak
     may transiently sit a few tables above the budget, never more than
     the pin width. *)
  let pin_slack = 8 in
  let within_budget = residency.Distcache.peak <= large_budget + pin_slack in
  Printf.printf
    "  n=%d budget=%d: %d steps, %.3f s; peak residency %d tables (%.2f \
     MiB)\n"
    large_n large_budget large.steps large.wall_s residency.Distcache.peak
    (float_of_int residency.Distcache.peak_bytes /. (1024.0 *. 1024.0));
  Option.iter (Printf.printf "  process peak RSS after it: %.1f MiB\n")
    peak_rss;
  check "identical trajectories with and without the cost board" identical;
  check "sublinear selection at least 4x over the full scan" (speedup >= 4.0);
  check "n=10000 run stays within the cache budget (+pin slack)"
    within_budget;
  scaling_report :=
    Some
      {
        sc_n = n;
        sc_m = 4 * n;
        sc_alpha = Ncg_rational.Q.to_string (Ncg_rational.Q.make n 4);
        sc_max_steps = max_steps;
        sc_fullscan = full;
        sc_sublinear = sub;
        sc_identical = identical;
        sc_large_n = large_n;
        sc_large_budget = large_budget;
        sc_large_max_steps = large_steps;
        sc_large = large;
        sc_large_peak_tables = residency.Distcache.peak;
        sc_large_peak_bytes = residency.Distcache.peak_bytes;
        sc_large_within_budget = within_budget;
        sc_large_peak_rss_mib = peak_rss;
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
   and the overhead stays within 1.5x. *)
let fleet_leg scale =
  section "Fleet vs single process: fig11 point, equal total workers";
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
            ("fast_parallel", sample_json r.fast_parallel);
            ("scan_domains", Json.Int r.fp_scan_domains);
            ("speedup", ratio r.reference.wall_s r.fast.wall_s);
            ( "sentinel_speedup",
              ratio r.reference.wall_s r.fast_sentinel.wall_s );
            ("identical_trajectories", Json.Bool r.identical);
          ])
      !fastpath_report
  in
  let incremental_json =
    opt
      (fun r ->
        Json.Obj
          [
            ("game", Json.Str "SUM-GBG");
            ("policy", Json.Str "max-cost");
            ("tie_break", Json.Str "prefer-deletion");
            ("n", Json.Int r.inc_n);
            ("m", Json.Int r.inc_m);
            ("alpha", Json.Str r.inc_alpha);
            ("trials", Json.Int r.inc_trials);
            ("per_step_tables", sample_json r.inc_plain);
            ("incremental", sample_json r.inc_cached);
            ("speedup", ratio r.inc_plain.wall_s r.inc_cached.wall_s);
            ( "cache",
              Json.Obj
                [
                  ("kept", Json.Int r.inc_stats.Distcache.kept);
                  ("repaired", Json.Int r.inc_stats.Distcache.repaired);
                  ("rebuilt", Json.Int r.inc_stats.Distcache.rebuilt);
                  ("fills", Json.Int r.inc_stats.Distcache.fills);
                  ("evicted", Json.Int r.inc_stats.Distcache.evicted);
                ] );
            ( "scaling",
              Json.List
                (List.map
                   (fun (n, plain_s, cached_s) ->
                     Json.Obj
                       [
                         ("n", Json.Int n);
                         ("per_step_steps_per_s", Json.Float plain_s);
                         ("incremental_steps_per_s", Json.Float cached_s);
                       ])
                   r.inc_scaling) );
            ("identical_trajectories", Json.Bool r.inc_identical);
          ])
      !incremental_report
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
            ("full_scan", sample_json r.sc_fullscan);
            ("sublinear", sample_json r.sc_sublinear);
            ("speedup", ratio r.sc_fullscan.wall_s r.sc_sublinear.wall_s);
            ("identical_trajectories", Json.Bool r.sc_identical);
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
                 ("ns", Json.List (List.map (fun n -> Json.Int n) scale.ns));
               ] );
           ("experiments", experiments);
           ("fastpath", fastpath_json);
           ("incremental", incremental_json);
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
    (* The scaling leg runs first on purpose: it asserts a 4x floor on a
       ~5x ratio, and running it after the other legs systematically
       costs the sublinear side ~10-15% (process-state contamination the
       per-sample Gc.compact does not undo — most likely allocator/page
       layout after the earlier legs' churn), which no amount of
       best-of-k sampling recovers.  First in a fresh process it
       measures the same ratio as a standalone `--only scaling` run. *)
    ( "scaling",
      "sublinear vs full-scan selection (SUM-GBG n=1000, bounded n=10000)",
      scaling_leg );
    ("fig1", "MAX-SG path convergence (Fig. 1)", fig1);
    gadget "fig2" "fig2-max-sg";
    ("thm21", "MAX-SG trees O(n^3) (Thm 2.1)", thm21);
    ("thm211", "MAX-SG trees max-cost Theta(n log n) (Thm 2.11)", thm211);
    ("cor32", "SUM-ASG trees max-cost exact bound (Cor 3.2)", cor32);
    gadget "thm33" "fig3-sum-asg";
    gadget "fig5" "fig5-sum-asg-budget";
    gadget "fig6" "fig6-max-asg-budget";
    gadget "cor36" "cor36-sum-asg-host";
    ("fig7", "SUM-ASG budget sweep (Fig. 7)",
     figure "fig7"
       "Fig. 7 (SUM): bounded-budget ASG, steps until convergence" 5.0);
    ("fig8", "MAX-ASG budget sweep (Fig. 8)",
     figure "fig8"
       "Fig. 8 (MAX): bounded-budget ASG, steps until convergence" 8.0);
    gadget "fig9" "fig9-sum-gbg";
    gadget "fig10" "fig10-max-gbg";
    gadget "cor42s" "cor42-sum-gbg-host";
    gadget "cor42m" "cor42-max-gbg-host";
    ("fig11", "SUM-GBG sweep (Fig. 11)",
     figure "fig11" "Fig. 11 (SUM): GBG, steps until convergence" 7.0);
    ("fig12", "SUM-GBG topologies (Fig. 12)",
     figure "fig12" "Fig. 12 (SUM): GBG starting-topology comparison" 8.0);
    ("fig13", "MAX-GBG sweep (Fig. 13)",
     figure "fig13" "Fig. 13 (MAX): GBG, steps until convergence" 8.0);
    ("fig14", "MAX-GBG topologies (Fig. 14)",
     figure "fig14" "Fig. 14 (MAX): GBG starting-topology comparison" 8.0);
    gadget "fig15" "fig15-sum-bilateral";
    gadget "fig16" "fig16-max-bilateral";
    ("phases", "GBG operation phases (Sec. 4.2.2)", phases);
    ("nocycle", "random-instance cycle hunt (Secs. 3.4/4.2)", nocycle);
    ("micro", "Bechamel micro-benchmarks", micro);
    ("fastpath", "fast engine vs reference oracle (SUM-GBG n=100)", fastpath);
    ( "incremental",
      "incremental cache vs per-step tables (SUM-GBG n=100/300)",
      incremental_leg );
    ("fleet", "fleet vs single process (supervision overhead)", fleet_leg);
  ]

let () =
  let only = ref [] in
  let trials = ref 10 in
  let nmax = ref 50 in
  let seed = ref 2013 in
  let paper = ref false in
  let json = ref None in
  let ids = List.map (fun (id, _, _) -> id) experiments in
  let usage_error what =
    Printf.eprintf
      "%s\n\
       usage: main.exe [--only ID]* [--trials T] [--nmax N] [--seed S] \
       [--paper] [--json PATH] [--sim NCG_SIM]\n\
       ids: %s\n"
      what (String.concat " " ids);
    exit 2
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
        trials := int_of_string t;
        parse rest
    | "--nmax" :: n :: rest ->
        nmax := int_of_string n;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string s;
        parse rest
    | "--paper" :: rest ->
        paper := true;
        parse rest
    | arg :: _ -> usage_error ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !paper then begin
    trials := 10000;
    nmax := 100
  end;
  let ns =
    List.filter
      (fun n -> n <= !nmax)
      [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
  in
  let scale = { trials = !trials; ns; seed = !seed } in
  let selected =
    match !only with
    | [] -> experiments
    | ids -> List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  Printf.printf "Reproduction benches: %d experiments, trials=%d, n up to %d\n"
    (List.length selected) !trials !nmax;
  let timings = ref [] in
  List.iter
    (fun (id, title, run) ->
      section (Printf.sprintf "[%s] %s" id title);
      let t0 = Clock.monotonic () in
      run scale;
      timings := (id, title, Clock.monotonic () -. t0) :: !timings)
    selected;
  match !json with
  | None -> ()
  | Some path -> write_json path ~scale ~timings:!timings
