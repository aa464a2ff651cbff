(* Arena differential suite: trials run one after another through one
   resident [Engine.Arena] against fresh solo runs.

   Sweeps, fleet shards and service workers run every trial as
   [Engine.run ~arena] on a resident arena whose pooled caches, cost
   boards, witnesses and seen-tables are reset between trials; every
   trial must be bit-identical — steps, stop reason, final network,
   sentinel report, even per-trial cache stats — to the same trial run
   solo on fresh resources through [Runner.run_trial].  The matrix crosses
   game x policy x tie-break; edge cases pin a one-trial arena, a
   violation or expired-budget trial mid-sequence leaving later trials
   unperturbed, arena accounting, checkpoint interrupt/resume through the
   runner, retry sub-seed stability, and the per-trial RNG seeding
   contract itself.  (The suite keeps its historical name and case
   names.) *)
open Ncg_graph
open Ncg_game
open Ncg_core
open Ncg_experiments

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reason_label = function
  | Engine.Converged -> "converged"
  | Engine.Cycle_detected { first_visit; period } ->
      Printf.sprintf "cycle(first=%d,period=%d)" first_visit period
  | Engine.Step_limit -> "step-limit"
  | Engine.Time_limit -> "time-limit"
  | Engine.Invariant_violation v ->
      Printf.sprintf "violation(%s)" (Audit.kind_label v.Audit.kind)

let same_step (a : Engine.step) (b : Engine.step) =
  a.Engine.index = b.Engine.index
  && a.Engine.move = b.Engine.move
  && a.Engine.effect = b.Engine.effect
  && a.Engine.cost_before = b.Engine.cost_before
  && a.Engine.cost_after = b.Engine.cost_after

(* Field-by-field identity, cache stats included: a pooled, reset cache
   must make the same decisions a fresh one makes. *)
let same_result (a : Engine.result) (b : Engine.result) =
  a.Engine.steps = b.Engine.steps
  && a.Engine.reason = b.Engine.reason
  && List.length a.Engine.history = List.length b.Engine.history
  && List.for_all2 same_step a.Engine.history b.Engine.history
  && Graph.equal a.Engine.final b.Engine.final
  && Canonical.key a.Engine.final = Canonical.key b.Engine.final
  && a.Engine.sentinel = b.Engine.sentinel
  && a.Engine.cache = b.Engine.cache

(* Trials [0 .. trials-1] one after another through one shared arena,
   each against its fresh solo run. *)
let assert_arena_equals_solo label spec ~seed ~trials =
  let arena = Engine.Arena.create (Model.n spec.Runner.model) in
  for i = 0 to trials - 1 do
    let r = Runner.run_trial ~arena spec ~seed ~trial:i in
    let solo = Runner.run_trial spec ~seed ~trial:i in
    if not (same_result r solo) then
      Alcotest.failf
        "%s trial %d diverged: arena %d steps (%s), solo %d steps (%s)" label i
        r.Engine.steps
        (reason_label r.Engine.reason)
        solo.Engine.steps
        (reason_label solo.Engine.reason)
  done;
  check_int (label ^ ": arena retired every trial") trials
    (Engine.Arena.trials arena)

(* ------------------------------------------------------------------ *)
(* The matrix: 5 games x 3 policies x 3 tie-breaks                     *)
(* ------------------------------------------------------------------ *)

let policies =
  [ ("max-cost", Policy.Max_cost);
    ("random-unhappy", Policy.Random_unhappy);
    ("round-robin", Policy.Round_robin) ]

let tie_breaks =
  [ ("uniform", Engine.Uniform);
    ("prefer-deletion", Engine.Prefer_deletion);
    ("first", Engine.First_candidate) ]

(* Initial networks follow each game's paper process; the exponential
   games stay tiny to respect [Response.exhaustive_limit]. *)
let game_size = function
  | Model.Sg | Model.Asg | Model.Gbg -> 10
  | Model.Bg | Model.Bilateral -> 5

let game_generate game rng =
  match game with
  | Model.Sg -> Gen.random_connected rng 10 0.2
  | Model.Asg -> Gen.random_budget_network rng 10 2
  | Model.Gbg -> Gen.random_m_edges rng 10 14
  | Model.Bg | Model.Bilateral -> Gen.random_connected rng 5 0.3

let game_spec ?(policy = Policy.Max_cost) ?(tie_break = Engine.Uniform) game =
  let model =
    Model.make
      ~alpha:(Ncg_rational.Q.of_int 3)
      game Model.Sum (game_size game)
  in
  Runner.spec ~policy ~tie_break ~max_steps:400 model (game_generate game)

let matrix_case game () =
  let configs = ref 0 in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (tname, tie_break) ->
          let spec = game_spec ~policy ~tie_break game in
          List.iter
            (fun seed ->
              assert_arena_equals_solo
                (Printf.sprintf "%s/%s/%s"
                   (Model.game_name
                      (Model.make ~alpha:(Ncg_rational.Q.of_int 3) game
                         Model.Sum (game_size game)))
                   pname tname)
                spec ~seed ~trials:4;
              incr configs)
            [ 1; 2 ])
        tie_breaks)
    policies;
  check_int "configs per game in the matrix" 18 !configs

(* ------------------------------------------------------------------ *)
(* QCheck: random (game, policy, seed, B <= 8): arena run = solo runs  *)
(* ------------------------------------------------------------------ *)

let games = [| Model.Sg; Model.Asg; Model.Gbg; Model.Bg; Model.Bilateral |]
let policy_arr = Array.of_list policies

let arb_batch_case =
  QCheck.make
    ~print:(fun (gi, pi, seed, b) ->
      Printf.sprintf "game=%d policy=%s seed=%d B=%d" gi
        (fst policy_arr.(pi)) seed b)
    QCheck.Gen.(
      quad (int_bound 4) (int_bound 2) (int_bound 100_000) (int_range 1 8))

(* The case name predates the arena-only engine and is kept so the suite
   listing stays stable; the property is B trials through one shared
   arena = B fresh [run_trial] calls. *)
let prop_batch_equals_solo =
  QCheck.Test.make ~count:25
    ~name:"run_batch = B independent run_trial calls, field by field"
    arb_batch_case
    (fun (gi, pi, seed, b) ->
      let spec = game_spec ~policy:(snd policy_arr.(pi)) games.(gi) in
      let arena = Engine.Arena.create (Model.n spec.Runner.model) in
      List.for_all
        (fun i ->
          same_result
            (Runner.run_trial ~arena spec ~seed ~trial:i)
            (Runner.run_trial spec ~seed ~trial:i))
        (List.init b Fun.id))

(* ------------------------------------------------------------------ *)
(* The per-trial RNG seeding contract                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_contract () =
  let spec = game_spec Model.Gbg in
  let n = game_size Model.Gbg in
  (* attempt 0 is the historical (seed, trial, n) triple — a state-split
     private stream, not draws off a shared sweep stream *)
  let stream = Runner.trial_rng spec ~seed:42 ~trial:3 ~attempt:0 in
  let solo = Random.State.make [| 42; 3; n |] in
  for _ = 1 to 32 do
    check_int "trial stream = solo (seed, trial, n) stream"
      (Random.State.int solo 1_000_000)
      (Random.State.int stream 1_000_000)
  done;
  (* the retry sub-seed appends the attempt to the triple; it cannot
     depend on how many draws attempt 0 (or any other trial) made *)
  let attempt0 = Runner.trial_rng spec ~seed:42 ~trial:3 ~attempt:0 in
  for _ = 1 to 17 do
    ignore (Random.State.int attempt0 99)
  done;
  let retry = Runner.trial_rng spec ~seed:42 ~trial:3 ~attempt:1 in
  let expected = Random.State.make [| 42; 3; n; 1 |] in
  for _ = 1 to 32 do
    check_int "retry sub-seed stable under sibling draws"
      (Random.State.int expected 1_000_000)
      (Random.State.int retry 1_000_000)
  done;
  (* trial independence end to end: a shard of the runner returns exactly
     the corresponding slice of the full run *)
  let full = Runner.run_outcomes ~seed:9 ~trials:10 spec in
  let shard = Runner.run_outcomes ~seed:9 ~trials:10 ~range:(4, 9) spec in
  check "shard outcomes = slice of the full run" true
    (shard = List.filteri (fun i _ -> i >= 4 && i < 9) full)

(* ------------------------------------------------------------------ *)
(* Edge cases: one trial, mid-sequence stops, arena accounting         *)
(* ------------------------------------------------------------------ *)

let sum_stats (a : Distcache.stats) (b : Distcache.stats) =
  {
    Distcache.kept = a.Distcache.kept + b.Distcache.kept;
    repaired = a.Distcache.repaired + b.Distcache.repaired;
    rebuilt = a.Distcache.rebuilt + b.Distcache.rebuilt;
    fills = a.Distcache.fills + b.Distcache.fills;
    evicted = a.Distcache.evicted + b.Distcache.evicted;
  }

let test_b1_equals_solo () =
  List.iter
    (fun game ->
      let spec = game_spec game in
      assert_arena_equals_solo "B=1" spec ~seed:11 ~trials:1)
    [ Model.Sg; Model.Asg; Model.Gbg ]

let test_violation_retires_mid_batch () =
  (* Trial 1 gets a corrupted instance (ownerless edge under ASG, audited
     every step): it must stop with a typed violation, and trials 2 and 3,
     which reuse the arena it retired into, must finish bit-identical to
     their solo runs. *)
  let n = 10 in
  let model =
    Model.make ~alpha:(Ncg_rational.Q.of_int 3) Model.Asg Model.Sum n
  in
  let spec =
    Runner.spec ~audit:Audit.Every_step ~max_steps:400 model (fun rng ->
        Gen.random_budget_network rng n 2)
  in
  let cfg = Runner.engine_config spec ~attempt:0 in
  let seed = 77 in
  let corrupt = 1 in
  let corrupted_graph trial =
    let rng = Runner.trial_rng spec ~seed ~trial ~attempt:0 in
    let g = spec.Runner.generate rng in
    (match Graph.edges g with
    | (u, v, _) :: _ ->
        Graph.Unsafe.set_owner_bit g u v false;
        Graph.Unsafe.set_owner_bit g v u false
    | [] -> ());
    (rng, g)
  in
  let arena = Engine.Arena.create n in
  List.iter
    (fun i ->
      if i = corrupt then begin
        let rng, g = corrupted_graph i in
        let r = Engine.run ~arena ~rng cfg g in
        check "corrupt trial stops with a typed violation" true
          (match r.Engine.reason with
          | Engine.Invariant_violation _ -> true
          | _ -> false);
        (* and is itself bit-identical to the same corrupted run solo *)
        let rng, g = corrupted_graph i in
        check "corrupt trial = solo corrupted run" true
          (same_result r (Engine.run ~rng cfg g))
      end
      else
        check
          (Printf.sprintf "trial %d unperturbed" i)
          true
          (same_result
             (Runner.run_trial ~arena spec ~seed ~trial:i)
             (Runner.run_trial spec ~seed ~trial:i)))
    [ 0; 1; 2; 3 ];
  check_int "arena retired the violation too" 4 (Engine.Arena.trials arena)

let test_time_limit_retires_mid_batch () =
  (* A budget strictly in the past stops a trial at step 0 with
     [Time_limit] — deterministically, so arena and solo agree exactly.
     (A 0.0 budget would be a coin flip: the deadline check is a strict
     comparison, so a first step landing in the same clock microsecond
     as the start still executes.)  Expired and unbudgeted trials
     alternate on one arena; neither kind perturbs the next. *)
  let spec = game_spec Model.Gbg in
  let expired =
    Runner.spec ~policy:spec.Runner.policy ~max_steps:400
      ~time_budget:(-1.0) spec.Runner.model spec.Runner.generate
  in
  let arena = Engine.Arena.create (Model.n spec.Runner.model) in
  for i = 0 to 5 do
    if i mod 2 = 1 then begin
      let r = Runner.run_trial ~arena expired ~seed:21 ~trial:i in
      check "expired budget = Time_limit at step 0" true
        (r.Engine.reason = Engine.Time_limit && r.Engine.steps = 0);
      check "timed-out trial = solo timed-out run" true
        (same_result r (Runner.run_trial expired ~seed:21 ~trial:i))
    end
    else
      check
        (Printf.sprintf "trial %d after a timed-out trial = solo" i)
        true
        (same_result
           (Runner.run_trial ~arena spec ~seed:21 ~trial:i)
           (Runner.run_trial spec ~seed:21 ~trial:i))
  done

let test_arena_reuse_and_accounting () =
  (* Twelve trials through one directly created arena: pooled caches,
     witnesses and seen-tables are reset between trials, so every trial
     is still bit-identical to solo — and the arena's books balance
     against the per-trial results, while [Engine.totals] counts each
     trial exactly once. *)
  Engine.reset_totals ();
  let spec = game_spec Model.Gbg in
  let arena = Engine.Arena.create (Model.n spec.Runner.model) in
  let runs =
    List.init 12 (fun i -> Runner.run_trial ~arena spec ~seed:3 ~trial:i)
  in
  (* snapshot before the solo comparison runs below add their own trials *)
  let t = Engine.totals () in
  let cache_sum =
    List.fold_left
      (fun acc r -> sum_stats acc r.Engine.cache)
      Distcache.zero_stats runs
  in
  List.iteri
    (fun i r ->
      check
        (Printf.sprintf "arena trial %d = solo" i)
        true
        (same_result r (Runner.run_trial spec ~seed:3 ~trial:i)))
    runs;
  check_int "arena retired every trial" 12 (Engine.Arena.trials arena);
  check "arena cache stats = sum of per-trial stats" true
    (Engine.Arena.cache_stats arena = cache_sum);
  check_int "process totals: one arena" 1 t.Engine.arenas;
  check_int "process totals: twelve trials" 12 t.Engine.trials;
  (* the arena feeds nothing into the totals itself: were a trial's stats
     added on retirement as well as when it finishes, this would read
     double *)
  check "process totals count each trial once" true
    (t.Engine.cache = cache_sum);
  check "process totals: peak residency of the largest trial" true
    (t.Engine.peak_tables
     = List.fold_left
         (fun m r -> max m r.Engine.residency.Distcache.peak)
         0 runs)

(* ------------------------------------------------------------------ *)
(* The runner: interrupt/resume and retry sub-seeds                    *)
(* ------------------------------------------------------------------ *)

let with_temp_checkpoint f =
  let path = Filename.temp_file "ncg_batch_ckpt" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_interrupt_resume_parity () =
  (* A stop request lands mid-batch (after the first recorded checkpoint
     group); the resumed run must reproduce the uninterrupted outcomes
     bit for bit — the same guarantee suite_fleet checks with real
     SIGKILLs through the CLI, here at the runner layer. *)
  with_temp_checkpoint (fun path ->
      let spec () = game_spec Model.Gbg in
      let uninterrupted = Runner.run_outcomes ~trials:20 (spec ()) in
      Runner.reset_stop ();
      let cp = Checkpoint.open_ ~fingerprint:"batch" path in
      let fired = ref 0 in
      (match
         Runner.run_outcomes ~checkpoint:cp ~key:"b" ~trials:20
           ~on_batch:(fun () ->
             incr fired;
             if !fired = 1 then Runner.request_stop ())
           (spec ())
       with
      | _ -> Alcotest.fail "expected Interrupted"
      | exception Runner.Interrupted -> ());
      Checkpoint.close cp;
      Runner.reset_stop ();
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"batch" path in
      let done_before = List.length (Checkpoint.completed cp ~key:"b") in
      check "interrupt left a strict prefix on disk" true
        (done_before > 0 && done_before < 20);
      let resumed =
        Runner.run_outcomes ~checkpoint:cp ~key:"b" ~trials:20 (spec ())
      in
      Checkpoint.close cp;
      check "resumed outcomes bit-identical to uninterrupted" true
        (resumed = uninterrupted))

let test_retry_subseed_stability () =
  (* Trials whose generator raises are retried on the appended-attempt
     sub-seed; the attempt that finally succeeds inside the sweep must be
     byte-identical to the same attempt run solo. *)
  let model = Model.make ~alpha:(Ncg_rational.Q.of_int 3) Model.Gbg Model.Sum 8 in
  let generate rng =
    let g = Gen.random_m_edges rng 8 10 in
    if Random.State.int rng 4 = 0 then failwith "injected fault";
    g
  in
  let spec = Runner.spec ~max_steps:400 ~max_retries:2 model generate in
  let seed = 5 in
  let outcomes = Runner.run_outcomes ~seed ~trials:12 spec in
  check_int "every trial has an outcome" 12 (List.length outcomes);
  check "the fault injection actually fired" true
    (List.exists (fun o -> o.Stats.attempts > 1) outcomes);
  List.iteri
    (fun trial o ->
      match o.Stats.verdict with
      | Stats.Finished { reason; steps } ->
          let attempt = o.Stats.attempts - 1 in
          let solo = Runner.run_attempt spec ~seed ~trial ~attempt in
          check "winning attempt reproduces solo on its sub-seed" true
            (solo.Engine.reason = reason && solo.Engine.steps = steps)
      | Stats.Crashed _ ->
          check "exhausted trials are quarantined" true o.Stats.quarantined)
    outcomes;
  check "retries are deterministic" true
    (Runner.run_outcomes ~seed ~trials:12 spec = outcomes)

let suite =
  ( "batch",
    [
      Alcotest.test_case "matrix: SG" `Quick (matrix_case Model.Sg);
      Alcotest.test_case "matrix: ASG" `Quick (matrix_case Model.Asg);
      Alcotest.test_case "matrix: GBG" `Quick (matrix_case Model.Gbg);
      Alcotest.test_case "matrix: BG" `Quick (matrix_case Model.Bg);
      Alcotest.test_case "matrix: bilateral" `Quick
        (matrix_case Model.Bilateral);
      Alcotest.test_case "RNG seeding contract" `Quick test_rng_contract;
      Alcotest.test_case "B=1 equals solo" `Quick test_b1_equals_solo;
      Alcotest.test_case "violation retires mid-batch" `Quick
        test_violation_retires_mid_batch;
      Alcotest.test_case "time limit retires mid-batch" `Quick
        test_time_limit_retires_mid_batch;
      Alcotest.test_case "arena reuse and accounting" `Quick
        test_arena_reuse_and_accounting;
      Alcotest.test_case "interrupt/resume mid-batch" `Quick
        test_interrupt_resume_parity;
      Alcotest.test_case "retry sub-seed stability" `Quick
        test_retry_subseed_stability;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_batch_equals_solo ] )
