(* Tests for the state-space explorer: FIPG probes, weak-acyclicity
   answers, cycle extraction. *)
open Ncg_graph
open Ncg_game
open Ncg_search
module I = Ncg_instances.Instance

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let max_sg n = Model.make Model.Sg Model.Max n

let test_tree_region_acyclic () =
  (* Thm 2.1 seen exhaustively: no improving-move cycle from small trees. *)
  List.iter
    (fun g ->
      check "tree region acyclic" true
        (Statespace.is_fipg_from (max_sg (Graph.n g)) g = `Yes))
    [ Gen.path 6; Gen.path 7; Gen.double_star 2 3 ]

let test_tree_region_reaches_stability () =
  match
    Statespace.reachable_stable_state (max_sg 7) (Gen.path 7)
  with
  | `Found g ->
      check "found state is stable" true
        (Response.is_stable (max_sg 7) g);
      check "and has the stable-tree shape" true
        (Ncg_core.Theory.stable_tree_shape_ok (max_sg 7) g)
  | `None | `Truncated -> Alcotest.fail "trees stabilise"

let test_fig2_cycle_found_and_valid () =
  let inst = Ncg_instances.Fig2_max_sg.instance in
  match
    Statespace.find_cycle ~rule:Statespace.Best_responses inst.I.model
      inst.I.initial
  with
  | `Cycle { start; moves } ->
      check_int "three-move cycle" 3 (List.length moves);
      (* replaying the moves returns to the start state exactly *)
      let g = Graph.copy start in
      List.iter (fun m -> ignore (Move.apply g m)) moves;
      check "cycle closes" true
        (Canonical.unowned_key g = Canonical.unowned_key start);
      (* and every move is a best response where it is played *)
      let g = Graph.copy start in
      List.iter
        (fun m ->
          let best = Response.best_moves inst.I.model g (Move.agent m) in
          check "cycle move is a best response" true
            (List.exists (fun e -> Move.equal e.Ncg_game.Response.move m) best);
          ignore (Move.apply g m))
        moves
  | `Acyclic | `Truncated -> Alcotest.fail "Fig. 2 has a cycle"

let test_find_cycle_long_path_region () =
  (* Regression for the explicit-stack rewrite of find_cycle: a MAX-SG
     path region is deep and acyclic (Thm 2.1), so the DFS must walk the
     whole region on its heap stack and still answer `Acyclic — and the
     verdicts on both rules must be unchanged from the recursive
     version. *)
  check "path-8 improving region acyclic" true
    (Statespace.find_cycle ~max_states:20_000 (max_sg 8) (Gen.path 8)
    = `Acyclic);
  check "path-7 best-response region acyclic" true
    (Statespace.find_cycle ~rule:Statespace.Best_responses ~max_states:10_000
       (max_sg 7) (Gen.path 7)
    = `Acyclic);
  (* tight budgets still surface as `Truncated, never a silent lie *)
  check "budget surfaces" true
    (Statespace.find_cycle ~max_states:5 (max_sg 8) (Gen.path 8) = `Truncated)

let test_explore_counts () =
  (* From a stable network the region is a single state. *)
  let e = Statespace.explore (max_sg 6) (Gen.star 6) in
  check_int "single state" 1 e.Statespace.explored;
  check_int "which is stable" 1 (List.length e.Statespace.stable);
  check "not truncated" false e.Statespace.truncated

let test_truncation () =
  let e =
    Statespace.explore ~max_states:3 (max_sg 8) (Gen.path 8)
  in
  check "truncation flagged" true e.Statespace.truncated;
  check "bounded" true (e.Statespace.explored <= 3)

let test_cor36_not_br_weakly_acyclic () =
  (* The strongest exhaustive reproduction: from Fig. 3's G1 on the host
     graph K24 - {a,f}, no sequence of best responses ever stabilises. *)
  let inst = Ncg_instances.Fig3_sum_asg.host_instance in
  match
    Statespace.reachable_stable_state ~max_states:100_000
      ~rule:Statespace.Best_responses inst.I.model inst.I.initial
  with
  | `None -> ()
  | `Found _ -> Alcotest.fail "Cor 3.6: unexpected stable state"
  | `Truncated -> Alcotest.fail "Cor 3.6 exploration truncated"

let test_cor42_behavior_documented () =
  (* Machine-checked deviation from the paper (see EXPERIMENTS.md): the
     Cor 4.2 host variants CAN reach stability via best responses because
     cycle-edge owners gain improving deletions.  Pin the observed
     behavior. *)
  let sum = Ncg_instances.Fig9_sum_gbg.host_instance in
  check "cor42 SUM stabilises" true
    (match
       Statespace.reachable_stable_state ~rule:Statespace.Best_responses
         sum.I.model sum.I.initial
     with
    | `Found g -> Response.is_stable sum.I.model g
    | `None | `Truncated -> false)

let test_classify () =
  (* trees: finite improvement + weakly acyclic *)
  let r = Classify.classify (max_sg 7) (Gen.path 7) in
  check "tree FIP" true (r.Classify.finite_improvement = Classify.Yes);
  check "tree BR-WAG" true (r.Classify.br_weakly_acyclic = Classify.Yes);
  check "tree WAG" true (r.Classify.weakly_acyclic = Classify.Yes);
  check "region explored" true (r.Classify.states_explored > 1);
  (* Fig. 2's instance: not FIP but the region may still stabilise *)
  let inst = Ncg_instances.Fig2_max_sg.instance in
  let r2 = Classify.classify inst.I.model inst.I.initial in
  check "fig2 not finite improvement" true
    (r2.Classify.finite_improvement = Classify.No);
  (* Fig. 3 host: not even weakly acyclic under best response *)
  let f3 = Ncg_instances.Fig3_sum_asg.host_instance in
  let r3 = Classify.classify ~max_states:100_000 f3.I.model f3.I.initial in
  check "cor36 not BR-WAG" true (r3.Classify.br_weakly_acyclic = Classify.No);
  ignore (Format.asprintf "%a" Classify.pp r3)

(* Every game on the 4-vertex path, explored exhaustively under improving
   moves: each region is complete, every sink is stable under its own
   game, and the early-exit search finds a sink exactly when the closure
   has one.  The region and sink counts are pinned. *)
let test_small_n_matrix () =
  let n = 4 in
  List.iter
    (fun (game, dist, explored, sinks) ->
      let model = Model.make game dist n in
      let tag = Model.game_name model in
      let e = Statespace.explore ~max_states:20_000 model (Gen.path n) in
      check (tag ^ ": not truncated") false e.Statespace.truncated;
      check_int (tag ^ ": explored") explored e.Statespace.explored;
      check_int (tag ^ ": sinks") sinks (List.length e.Statespace.stable);
      check_int (tag ^ ": one representative per sink") sinks
        (List.length e.Statespace.stable_reps);
      List.iter
        (fun g ->
          check (tag ^ ": sink is stable") true (Response.is_stable model g);
          check (tag ^ ": sink classifies game-stable") true
            (Classify.classify_sink model g).Classify.game_stable)
        e.Statespace.stable_reps;
      check (tag ^ ": early exit finds a sink iff the closure has one")
        (e.Statespace.stable <> [])
        (match
           Statespace.reachable_stable_state ~max_states:20_000 model
             (Gen.path n)
         with
        | `Found _ -> true
        | `None -> false
        | `Truncated -> Alcotest.fail (tag ^ ": early exit truncated")))
    [
      (Model.Sg, Model.Sum, 3, 2);
      (Model.Sg, Model.Max, 3, 2);
      (Model.Asg, Model.Sum, 2, 1);
      (Model.Asg, Model.Max, 2, 1);
      (Model.Gbg, Model.Sum, 6, 5);
      (Model.Gbg, Model.Max, 2, 1);
      (Model.Bg, Model.Sum, 9, 8);
      (Model.Bg, Model.Max, 2, 1);
      (Model.Bilateral, Model.Sum, 19, 1);
      (Model.Bilateral, Model.Max, 21, 5);
    ]

let suite =
  ( "search",
    [
      Alcotest.test_case "tree regions acyclic" `Slow
        test_tree_region_acyclic;
      Alcotest.test_case "tree regions stabilise" `Quick
        test_tree_region_reaches_stability;
      Alcotest.test_case "fig2 cycle extraction" `Quick
        test_fig2_cycle_found_and_valid;
      Alcotest.test_case "find_cycle long-path regions" `Slow
        test_find_cycle_long_path_region;
      Alcotest.test_case "explore stable state" `Quick test_explore_counts;
      Alcotest.test_case "truncation" `Quick test_truncation;
      Alcotest.test_case "cor36 not BR-weakly-acyclic" `Slow
        test_cor36_not_br_weakly_acyclic;
      Alcotest.test_case "cor42 observed behavior" `Slow
        test_cor42_behavior_documented;
      Alcotest.test_case "classification" `Slow test_classify;
      Alcotest.test_case "small-n matrix: every game on the 4-path" `Quick
        test_small_n_matrix;
    ] )
