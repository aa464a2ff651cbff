(* Tests for the state-space walk: FIPG probes, weak-acyclicity answers,
   cycle extraction. *)
open Ncg_graph
open Ncg_game
open Ncg_search
module I = Ncg_instances.Instance

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let max_sg n = Model.make Model.Sg Model.Max n

(* A complete region with no cycle: every move sequence terminates. *)
let check_acyclic name e =
  check (name ^ ": no cycle") true (Option.is_none e.Statespace.cycle);
  check (name ^ ": not truncated") false e.Statespace.truncated

let test_tree_region_acyclic () =
  (* Thm 2.1 seen exhaustively: no improving-move cycle from small trees. *)
  List.iter
    (fun g ->
      check_acyclic "tree region" (Statespace.explore (max_sg (Graph.n g)) g))
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

(* Replaying a cycle's moves from its start returns to the start's state
   key, and each move is one the rule allows where it is played. *)
let check_cycle name (inst : I.t) rule ~allowed =
  match (Statespace.explore ~rule inst.I.model inst.I.initial).Statespace.cycle
  with
  | None -> Alcotest.fail (name ^ ": no cycle found")
  | Some { Statespace.start; moves } ->
      let key =
        if Model.uses_ownership inst.I.model then Canonical.key
        else Canonical.unowned_key
      in
      let g = Graph.copy start in
      List.iter
        (fun m ->
          check (name ^ ": cycle move allowed where played") true
            (List.exists
               (fun e -> Move.equal e.Response.move m)
               (allowed inst.I.model g (Move.agent m)));
          ignore (Move.apply g m))
        moves;
      check (name ^ ": cycle closes") true (key g = key start);
      moves

let test_fig2_cycle_found_and_valid () =
  let moves =
    check_cycle "fig2" Ncg_instances.Fig2_max_sg.instance
      Statespace.Best_responses ~allowed:Response.best_moves
  in
  check_int "three-move cycle" 3 (List.length moves);
  List.iter
    (fun inst ->
      ignore
        (check_cycle inst.I.name inst Statespace.All_improving
           ~allowed:Response.improving_moves))
    [ Ncg_instances.Fig3_sum_asg.instance;
      Ncg_instances.Fig3_sum_asg.host_instance ]

let test_long_path_regions_acyclic () =
  (* A MAX-SG path region is deep and acyclic (Thm 2.1), so the cycle
     search must walk the whole region on its heap stack and answer "no
     cycle" on both rules. *)
  check_acyclic "path-8 improving region"
    (Statespace.explore ~max_states:20_000 (max_sg 8) (Gen.path 8));
  check_acyclic "path-7 best-response region"
    (Statespace.explore ~rule:Statespace.Best_responses ~max_states:10_000
       (max_sg 7) (Gen.path 7));
  (* tight budgets still surface as truncation, never a silent lie *)
  check "budget surfaces" true
    (Statespace.explore ~max_states:5 (max_sg 8) (Gen.path 8))
      .Statespace.truncated

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
  check "bounded" true (e.Statespace.explored <= 3);
  (* a truncated region still reports a cycle among the states it
     admitted: Fig. 2's improving cycle lies in its first four *)
  let inst = Ncg_instances.Fig2_max_sg.instance in
  let e = Statespace.explore ~max_states:4 inst.I.model inst.I.initial in
  check "fig2 at 4 states truncated" true e.Statespace.truncated;
  check "and still reports a cycle" true (Option.is_some e.Statespace.cycle)

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
  let open Classify in
  (* the printed report names every field *)
  let expect name r
      (finite_improvement, br_weakly_acyclic, weakly_acyclic, states_explored)
      =
    let show = Format.asprintf "%a" pp in
    Alcotest.(check string)
      name
      (show
         {
           finite_improvement;
           br_weakly_acyclic;
           weakly_acyclic;
           states_explored;
         })
      (show r)
  in
  (* trees: finite improvement + weakly acyclic *)
  expect "path-7" (classify (max_sg 7) (Gen.path 7)) (Yes, Yes, Yes, 566);
  (* Fig. 2's instance: not FIP but the region may still stabilise *)
  let inst = Ncg_instances.Fig2_max_sg.instance in
  expect "fig2" (classify inst.I.model inst.I.initial) (No, Yes, Yes, 6);
  (* Fig. 3 and its host: not even weakly acyclic under best response *)
  let f3 = Ncg_instances.Fig3_sum_asg.instance in
  expect "fig3" (classify f3.I.model f3.I.initial) (No, No, Yes, 46);
  let f3h = Ncg_instances.Fig3_sum_asg.host_instance in
  expect "cor36"
    (classify ~max_states:100_000 f3h.I.model f3h.I.initial)
    (No, No, Yes, 19)

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
      List.iter
        (fun g ->
          check (tag ^ ": sink is stable") true (Response.is_stable model g);
          check (tag ^ ": sink classifies game-stable") true
            (Classify.classify_sink model g).Classify.game_stable)
        e.Statespace.stable;
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
      Alcotest.test_case "long-path regions acyclic" `Slow
        test_long_path_regions_acyclic;
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
