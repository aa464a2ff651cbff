(* Tests for the shadow sentinel: invisibility on a healthy fast path,
   detection of a chaos-broken one, and graceful degradation that keeps
   the trial bit-identical to a pure reference run. *)

open Ncg_graph
open Ncg_game
open Ncg_core
open Ncg_experiments

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gbg n =
  Model.make ~alpha:(Ncg_rational.Q.make n 4) Model.Gbg Model.Sum n

let asg n = Model.make Model.Asg Model.Sum n

let cfg ?sentinel ?(policy = Policy.Max_cost) model =
  Engine.config ?sentinel ~policy ~tie_break:Engine.Prefer_deletion
    ~record_history:true model

let rng seed = Random.State.make [| seed; 0xfade |]

(* Full structural comparison minus the sentinel report: trajectories are
   bit-identical iff every one of these agrees. *)
let same_trajectory (a : Engine.result) (b : Engine.result) =
  a.Engine.reason = b.Engine.reason
  && a.Engine.steps = b.Engine.steps
  && a.Engine.history = b.Engine.history
  && Canonical.key a.Engine.final = Canonical.key b.Engine.final

(* ------------------------------------------------------------------ *)
(* Healthy fast path: the sentinel must be invisible                   *)
(* ------------------------------------------------------------------ *)

let test_every_step_invisible_when_healthy () =
  List.iter
    (fun seed ->
      let model = gbg 12 in
      let g = Gen.random_m_edges (Random.State.make [| seed |]) 12 18 in
      let plain = Engine.run ~rng:(rng seed) (cfg model) g in
      let watched =
        Engine.run ~rng:(rng seed)
          (cfg ~sentinel:Sentinel.Every_step model)
          g
      in
      let oracle =
        Reference.run ~rng:(rng seed)
          (cfg ~sentinel:Sentinel.Every_step model)
          g
      in
      check "watched run equals unwatched run" true
        (same_trajectory plain watched);
      check "watched run equals the reference oracle" true
        (same_trajectory watched oracle);
      check "every step was checked" true
        (watched.Engine.sentinel.Sentinel.checked >= watched.Engine.steps);
      check "no incidents" true
        (watched.Engine.sentinel.Sentinel.incidents = []);
      check "never degraded" true
        (watched.Engine.sentinel.Sentinel.degraded_at = None);
      check "reference reports a clean sentinel" true
        (oracle.Engine.sentinel = Sentinel.clean_report))
    [ 3; 17; 42 ]

let test_sampling_is_trajectory_neutral () =
  let model = asg 14 in
  let g = Gen.random_budget_network (Random.State.make [| 5 |]) 14 2 in
  let plain = Engine.run ~rng:(rng 5) (cfg model) g in
  let sampled =
    Engine.run ~rng:(rng 5) (cfg ~sentinel:(Sentinel.Sampled 0.3) model) g
  in
  check "sampled run equals unwatched run" true
    (same_trajectory plain sampled);
  check "some steps were checked" true
    (sampled.Engine.sentinel.Sentinel.checked > 0);
  check "fewer checks than steps" true
    (sampled.Engine.sentinel.Sentinel.checked < sampled.Engine.steps);
  let off =
    Engine.run ~rng:(rng 5) (cfg ~sentinel:(Sentinel.Sampled 0.0) model) g
  in
  check "rate 0 never checks" true
    (off.Engine.sentinel = Sentinel.clean_report)

(* ------------------------------------------------------------------ *)
(* Chaos-broken fast path: detect, record, degrade — bit-identically   *)
(* ------------------------------------------------------------------ *)

let with_chaos ~after k =
  Response.Fast.chaos_corrupt_best_moves ~after;
  Fun.protect ~finally:Response.Fast.chaos_reset k

let test_divergence_detected_and_degraded () =
  let model = gbg 12 in
  let g = Gen.random_m_edges (Random.State.make [| 9 |]) 12 20 in
  let broken =
    with_chaos ~after:4 (fun () ->
        Engine.run ~rng:(rng 9) (cfg ~sentinel:Sentinel.Every_step model) g)
  in
  let oracle = Reference.run ~rng:(rng 9) (cfg model) g in
  check_int "exactly one incident" 1
    (List.length broken.Engine.sentinel.Sentinel.incidents);
  (match broken.Engine.sentinel.Sentinel.incidents with
  | [ i ] ->
      check "the move-set phase diverged" true
        (match i.Sentinel.phase with
        | Sentinel.Move_set { fast; reference; _ } ->
            not (Sentinel.moves_equal fast reference)
        | Sentinel.Selection _ -> false);
      check "incident carries the corrupted step" true (i.Sentinel.step = 4);
      check "incident fingerprints the state" true
        (String.length i.Sentinel.fingerprint > 0);
      check "incident renders" true
        (String.length (Sentinel.incident_to_string i) > 0)
  | _ -> ());
  check "degraded at the corrupted step" true
    (broken.Engine.sentinel.Sentinel.degraded_at = Some 4);
  check "degraded trial is bit-identical to the pure reference run" true
    (same_trajectory broken oracle);
  check "outcome is flagged as degraded" true
    (Stats.outcome_of_result broken).Stats.degraded

let test_duplicate_corruption_detected () =
  (* the other corruption shape of the hook: a duplicated singleton *)
  let model = asg 10 in
  let g = Gen.random_budget_network (Random.State.make [| 11 |]) 10 2 in
  let oracle = Reference.run ~rng:(rng 11) (cfg model) g in
  let broken =
    with_chaos ~after:0 (fun () ->
        Engine.run ~rng:(rng 11) (cfg ~sentinel:Sentinel.Every_step model) g)
  in
  check "divergence at step 0 detected" true
    (broken.Engine.sentinel.Sentinel.degraded_at = Some 0);
  check "still bit-identical to the reference" true
    (same_trajectory broken oracle)

let test_sentinel_off_misses_the_corruption () =
  (* the contrast case: without the sentinel the corruption goes
     unnoticed — the run completes, reports a clean sentinel, and nobody
     is told.  This is precisely the gap the sentinel closes. *)
  let model = gbg 12 in
  let g = Gen.random_m_edges (Random.State.make [| 9 |]) 12 20 in
  let blind =
    with_chaos ~after:4 (fun () -> Engine.run ~rng:(rng 9) (cfg model) g)
  in
  check "run completes despite the corruption" true
    (match blind.Engine.reason with
    | Engine.Converged | Engine.Step_limit | Engine.Cycle_detected _
    | Engine.Time_limit | Engine.Invariant_violation _ ->
        true);
  check "and reports a clean sentinel" true
    (blind.Engine.sentinel = Sentinel.clean_report)

(* The acceptance scenario: a seeded sweep whose fast path is broken once
   mid-sweep completes, with the statistics reporting exactly one
   degraded trial and every trial converging exactly as a clean sweep
   does. *)
let test_sweep_reports_exactly_one_degraded_trial () =
  let spec sentinel =
    Runner.spec ~sentinel (asg 10) (fun rng ->
        Gen.random_budget_network rng 10 2)
  in
  let clean =
    Runner.run ~domains:1 ~trials:3 (spec Sentinel.Every_step)
  in
  let chaotic =
    with_chaos ~after:0 (fun () ->
        Runner.run ~domains:1 ~trials:3 (spec Sentinel.Every_step))
  in
  check_int "three runs" 3 chaotic.Stats.runs;
  check_int "exactly one degraded trial" 1 chaotic.Stats.degraded;
  check_int "all three still converge" 3 chaotic.Stats.converged;
  check_int "nothing quarantined" 0 chaotic.Stats.quarantined;
  check "statistics otherwise identical to the clean sweep" true
    ({ chaotic with Stats.degraded = 0 } = clean)

(* ------------------------------------------------------------------ *)
(* Pinned reports on one SUM-GBG instance                              *)
(* ------------------------------------------------------------------ *)

(* n = 12, m = 24, alpha = 3, under each scheduler the step tells apart:
   [Max_cost], whose selection the sentinel replays too, and a
   first-unhappy [Adversarial] scheduler, which is never called twice, so
   only its move sets are checked.  Every count and graph below is what
   the engine reported before its step paths were merged into one. *)
let pinned_instance () =
  (gbg 12, Gen.random_m_edges (Random.State.make [| 3 |]) 12 24)

let first_unhappy =
  Policy.Adversarial (fun _ -> function u :: _ -> Some u | [] -> None)

let pinned_run policy =
  let model, g = pinned_instance () in
  Engine.run ~rng:(rng 3) (cfg ~sentinel:Sentinel.Every_step ~policy model) g

let max_cost_final =
  "12;0,2>;1,2<;2,3>;2,4>;2,5>;2,6>;2,7>;2,8>;2,9<;2,10>;2,11>"

let adversarial_final =
  "12;0,1>;0,2>;0,3>;0,4>;0,5>;0,6>;0,7>;0,8>;0,9>;0,10<;0,11>"

let test_pinned_checked_counts () =
  List.iter
    (fun (name, policy, steps, checked, final) ->
      let r = pinned_run policy in
      check (name ^ ": converged") true (Engine.converged r);
      check_int (name ^ ": steps") steps r.Engine.steps;
      check_int (name ^ ": checked") checked r.Engine.sentinel.Sentinel.checked;
      check (name ^ ": clean report") true
        (r.Engine.sentinel.Sentinel.incidents = []
        && r.Engine.sentinel.Sentinel.degraded_at = None);
      Alcotest.(check string)
        (name ^ ": final graph") final (Canonical.key r.Engine.final))
    [
      (* every step, plus the converging step's shadowed selection *)
      ("max cost", Policy.Max_cost, 20, 21, max_cost_final);
      (* the move set of every step; the converging step has none *)
      ("adversarial", first_unhappy, 28, 28, adversarial_final);
    ]

(* The fast best-move list corrupted at step 4: both schedulers catch it
   in the move-set check, degrade there, and finish on the reference
   path to the healthy run's final graph. *)
let test_pinned_divergence () =
  List.iter
    (fun (name, policy, steps, agent, final) ->
      let r = with_chaos ~after:4 (fun () -> pinned_run policy) in
      let report = r.Engine.sentinel in
      check (name ^ ": degraded at step 4") true
        (report.Sentinel.degraded_at = Some 4);
      check_int (name ^ ": steps 0 to 4 checked") 5 report.Sentinel.checked;
      check (name ^ ": one move-set incident") true
        (match report.Sentinel.incidents with
        | [ { Sentinel.step = 4; phase = Sentinel.Move_set m; _ } ] ->
            m.agent = agent
        | _ -> false);
      check_int (name ^ ": steps") steps r.Engine.steps;
      Alcotest.(check string)
        (name ^ ": final graph") final (Canonical.key r.Engine.final))
    [
      ("max cost", Policy.Max_cost, 20, 4, max_cost_final);
      ("adversarial", first_unhappy, 28, 0, adversarial_final);
    ]

(* ------------------------------------------------------------------ *)
(* Sentinel unit behavior                                              *)
(* ------------------------------------------------------------------ *)

let test_due_levels () =
  let srng = Sentinel.make_rng 10 in
  check "off never" false (Sentinel.due Sentinel.Off srng);
  check "every step always" true (Sentinel.due Sentinel.Every_step srng);
  check "rate 0 never" false (Sentinel.due (Sentinel.Sampled 0.0) srng);
  check "rate 1 always" true (Sentinel.due (Sentinel.Sampled 1.0) srng);
  check "negative rate never" false
    (Sentinel.due (Sentinel.Sampled (-0.5)) srng);
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Sentinel.due (Sentinel.Sampled 0.25) srng then incr hits
  done;
  check "a quarter-rate samples near a quarter" true
    (!hits > 150 && !hits < 350)

let test_shadowed_policies () =
  check "max cost shadowed" true (Sentinel.shadows_selection Policy.Max_cost);
  check "round robin shadowed" true
    (Sentinel.shadows_selection Policy.Round_robin);
  check "random shadowed" true
    (Sentinel.shadows_selection Policy.Random_unhappy);
  check "adversarial closures are not re-invoked" false
    (Sentinel.shadows_selection (Policy.Adversarial (fun _ _ -> None)))

let suite =
  ( "sentinel",
    [
      Alcotest.test_case "every-step sentinel invisible when healthy" `Quick
        test_every_step_invisible_when_healthy;
      Alcotest.test_case "sampling is trajectory neutral" `Quick
        test_sampling_is_trajectory_neutral;
      Alcotest.test_case "divergence detected and degraded" `Quick
        test_divergence_detected_and_degraded;
      Alcotest.test_case "duplicate corruption detected" `Quick
        test_duplicate_corruption_detected;
      Alcotest.test_case "sentinel off misses the corruption" `Quick
        test_sentinel_off_misses_the_corruption;
      Alcotest.test_case "sweep reports exactly one degraded trial" `Quick
        test_sweep_reports_exactly_one_degraded_trial;
      Alcotest.test_case "due levels" `Quick test_due_levels;
      Alcotest.test_case "shadowed policies" `Quick test_shadowed_policies;
      Alcotest.test_case "pinned checked counts per scheduler" `Quick
        test_pinned_checked_counts;
      Alcotest.test_case "pinned divergence per scheduler" `Quick
        test_pinned_divergence;
    ] )
