(* Tests for the state-space walk: FIPG probes, weak-acyclicity answers,
   cycle extraction. *)
open Ncg_graph
open Ncg_game
open Ncg_search
module I = Ncg_instances.Instance

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let max_sg n = Model.make Model.Sg Model.Max n

(* The walk from one network. *)
let explore ?max_states ?rule model g =
  Statespace.explore ?max_states ?rule model (Seq.return g)

(* A complete region with no cycle: every move sequence terminates. *)
let check_acyclic name e =
  check (name ^ ": no cycle") true (Option.is_none e.Statespace.cycle);
  check (name ^ ": not truncated") false e.Statespace.truncated

let test_tree_region_acyclic () =
  (* Thm 2.1 seen exhaustively: no improving-move cycle from small trees. *)
  List.iter
    (fun g ->
      check_acyclic "tree region" (explore (max_sg (Graph.n g)) g))
    [ Gen.path 6; Gen.path 7; Gen.double_star 2 3 ]

let test_tree_region_reaches_stability () =
  match (explore (max_sg 7) (Gen.path 7)).Statespace.stable with
  | g :: _ ->
      check "found state is stable" true
        (Response.is_stable (max_sg 7) g);
      check "and has the stable-tree shape" true
        (Ncg_core.Theory.stable_tree_shape_ok (max_sg 7) g)
  | [] -> Alcotest.fail "trees stabilise"

(* Replaying a cycle's moves from its start returns to the start's state
   key, and each move is one the rule allows where it is played. *)
let check_closes name model { Statespace.start; moves } ~allowed =
  let key =
    if Model.uses_ownership model then Canonical.key
    else Canonical.unowned_key
  in
  let g = Graph.copy start in
  List.iter
    (fun m ->
      check (name ^ ": cycle move allowed where played") true
        (List.exists
           (fun e -> Move.equal e.Response.move m)
           (allowed model g (Move.agent m)));
      ignore (Move.apply g m))
    moves;
  check (name ^ ": cycle closes") true (key g = key start)

let check_cycle name (inst : I.t) rule ~allowed =
  match (explore ~rule inst.I.model inst.I.initial).Statespace.cycle with
  | None -> Alcotest.fail (name ^ ": no cycle found")
  | Some c ->
      check_closes name inst.I.model c ~allowed;
      c.Statespace.moves

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
    (explore ~max_states:20_000 (max_sg 8) (Gen.path 8));
  check_acyclic "path-7 best-response region"
    (explore ~rule:Statespace.Best_responses ~max_states:10_000 (max_sg 7)
       (Gen.path 7));
  (* tight budgets still surface as truncation, never a silent lie *)
  check "budget surfaces" true
    (explore ~max_states:5 (max_sg 8) (Gen.path 8)).Statespace.truncated

let test_explore_counts () =
  (* From a stable network the region is a single state. *)
  let e = explore (max_sg 6) (Gen.star 6) in
  check_int "single state" 1 e.Statespace.explored;
  check_int "which is stable" 1 (List.length e.Statespace.stable);
  check "not truncated" false e.Statespace.truncated

let test_truncation () =
  let e = explore ~max_states:3 (max_sg 8) (Gen.path 8) in
  check "truncation flagged" true e.Statespace.truncated;
  check "bounded" true (e.Statespace.explored <= 3);
  (* a truncated region still reports a cycle among the states it
     admitted: Fig. 2's improving cycle lies in its first four *)
  let inst = Ncg_instances.Fig2_max_sg.instance in
  let e = explore ~max_states:4 inst.I.model inst.I.initial in
  check "fig2 at 4 states truncated" true e.Statespace.truncated;
  check "and still reports a cycle" true (Option.is_some e.Statespace.cycle)

let test_cor36_not_br_weakly_acyclic () =
  (* The strongest exhaustive reproduction: from Fig. 3's G1 on the host
     graph K24 - {a,f}, no sequence of best responses ever stabilises. *)
  let inst = Ncg_instances.Fig3_sum_asg.host_instance in
  let e =
    explore ~max_states:100_000 ~rule:Statespace.Best_responses inst.I.model
      inst.I.initial
  in
  check "Cor 3.6 exploration complete" false e.Statespace.truncated;
  check "Cor 3.6: no stable state" true (e.Statespace.stable = [])

let test_cor42_behavior_documented () =
  (* Machine-checked deviation from the paper (see EXPERIMENTS.md): the
     Cor 4.2 host variants CAN reach stability via best responses because
     cycle-edge owners gain improving deletions.  Pin the observed
     behavior. *)
  let sum = Ncg_instances.Fig9_sum_gbg.host_instance in
  let e = explore ~rule:Statespace.Best_responses sum.I.model sum.I.initial in
  check "cor42 SUM stabilises" true
    (e.Statespace.stable <> []
    && List.for_all (Response.is_stable sum.I.model) e.Statespace.stable)

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

(* The best-response tags of an improving walk say what a walk of the
   best-response region alone says: whether some best-response path from
   the root reaches a stable state. *)
let check_tags name model g =
  let e = explore ~max_states:20_000 model g in
  check (name ^ ": improving region complete") false e.Statespace.truncated;
  let b = explore ~max_states:20_000 ~rule:Statespace.Best_responses model g in
  check (name ^ ": best-response region complete") false b.Statespace.truncated;
  check (name ^ ": tags reach a sink iff the best-response walk does")
    (b.Statespace.stable <> [])
    e.Statespace.best_response_stable

(* Every game on the 4-vertex path, explored exhaustively under improving
   moves: each region is complete, every sink is stable under its own
   game, and the best-response tags agree with a best-response walk.  The
   region and sink counts are pinned. *)
let test_small_n_matrix () =
  let n = 4 in
  List.iter
    (fun (game, dist, explored, sinks) ->
      let model = Model.make game dist n in
      let tag = Model.game_name model in
      let e = explore ~max_states:20_000 model (Gen.path n) in
      check (tag ^ ": not truncated") false e.Statespace.truncated;
      check_int (tag ^ ": explored") explored e.Statespace.explored;
      check_int (tag ^ ": sinks") sinks (List.length e.Statespace.stable);
      List.iter
        (fun g ->
          check (tag ^ ": sink is stable") true (Response.is_stable model g);
          check (tag ^ ": sink classifies game-stable") true
            (Classify.classify_sink model g).Classify.game_stable)
        e.Statespace.stable;
      check_tags tag model (Gen.path n))
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

let test_tags_on_gadgets () =
  List.iter
    (fun (inst : I.t) -> check_tags inst.I.name inst.I.model inst.I.initial)
    [
      Ncg_instances.Fig2_max_sg.instance;
      Ncg_instances.Fig3_sum_asg.instance;
      Ncg_instances.Fig3_sum_asg.host_instance;
      Ncg_instances.Fig9_sum_gbg.host_instance;
      Ncg_instances.Fig10_max_gbg.host_instance;
    ]

let test_many_roots () =
  let inst = Ncg_instances.Fig2_max_sg.instance in
  let model = inst.I.model and g = inst.I.initial in
  (* a sink first, then the initial network: the best-response cycle lies
     in the second root's region and is rebuilt from that root *)
  let sink =
    match (explore model g).Statespace.stable with
    | s :: _ -> s
    | [] -> Alcotest.fail "fig2's region has a sink"
  in
  let e =
    Statespace.explore ~rule:Statespace.Best_responses model
      (List.to_seq [ sink; g ])
  in
  (match e.Statespace.cycle with
  | None -> Alcotest.fail "fig2: no cycle from the second root"
  | Some c ->
      check_closes "fig2 from [sink; g]" model c ~allowed:Response.best_moves;
      check_int "three-move cycle" 3 (List.length c.Statespace.moves));
  (* a repeated root adds nothing *)
  let key = Canonical.unowned_key in
  let summary e =
    ( e.Statespace.explored,
      List.map key e.Statespace.stable,
      e.Statespace.best_response_stable,
      Option.map
        (fun c ->
          (key c.Statespace.start, List.map Move.to_string c.Statespace.moves))
        e.Statespace.cycle,
      e.Statespace.truncated )
  in
  check "[g; g] explores as [g]" true
    (summary (Statespace.explore model (List.to_seq [ g; g ]))
    = summary (explore model g));
  (* tagged paths start at every root, also one the walk already admitted:
     no best response leads from Fig. 3's network to a sink of its region,
     but that sink is a root of its own *)
  let f3 = Ncg_instances.Fig3_sum_asg.instance in
  let e3 = explore f3.I.model f3.I.initial in
  check "fig3 alone: no tagged path to a sink" false
    e3.Statespace.best_response_stable;
  check "fig3 and its first sink: a sink root" true
    (Statespace.explore f3.I.model
       (List.to_seq [ f3.I.initial; List.hd e3.Statespace.stable ]))
      .Statespace.best_response_stable

let test_classify_small_budgets () =
  (* One line per way [classify] reaches its best-response verdict: from
     the tags of a truncated or complete region, or from the fallback walk
     when a truncated region's tags reach no sink. *)
  List.iter
    (fun (name, model, g, max_states, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at %d states" name max_states)
        expected
        (Format.asprintf "%a" Classify.pp
           (Classify.classify ~max_states model g)))
    (let gadget (inst : I.t) = (inst.I.name, inst.I.model, inst.I.initial) in
     let case (name, model, g) max_states (fi, br, wa) =
       ( name,
         model,
         g,
         max_states,
         Printf.sprintf
           "finite-improvement=%s br-weakly-acyclic=%s weakly-acyclic=%s (%d \
            states)"
           fi br wa max_states )
     in
     let fig2 = gadget Ncg_instances.Fig2_max_sg.instance
     and path8 = ("MAX-SG 8-path", max_sg 8, Gen.path 8) in
     [
       case fig2 2 ("unknown", "unknown", "unknown");
       case fig2 3 ("unknown", "yes", "yes");
       case (gadget Ncg_instances.Fig3_sum_asg.instance) 4
         ("unknown", "no", "unknown");
       case (gadget Ncg_instances.Fig9_sum_gbg.host_instance) 5
         ("unknown", "yes", "unknown");
       case (gadget Ncg_instances.Fig10_max_gbg.host_instance) 10
         ("no", "yes", "yes");
       case path8 100 ("unknown", "unknown", "unknown");
       case path8 1000 ("unknown", "yes", "unknown");
     ])

(* Inclusion-exclusion over the k vertex pairs that pick each other, which
   would need a double edge. *)
let unit_budget_count n =
  let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  List.fold_left ( + ) 0
    (List.init ((n / 2) + 1) (fun k ->
         (if k land 1 = 0 then 1 else -1)
         * fact n
         / (fact k * pow 2 k * fact (n - (2 * k)))
         * pow (n - 1) (n - (2 * k))))

let test_unit_budget_generator () =
  check_int "inclusion-exclusion at n = 7" 138_690 (unit_budget_count 7);
  List.iter
    (fun (n, count) ->
      let nets = Gen.unit_budget_networks n in
      check_int (Printf.sprintf "n = %d: networks" n) count (Seq.length nets);
      check_int (Printf.sprintf "n = %d: distinct networks" n) count
        (List.length
           (List.sort_uniq compare (List.of_seq (Seq.map Canonical.key nets))));
      check_int (Printf.sprintf "n = %d: inclusion-exclusion" n) count
        (unit_budget_count n);
      check (Printf.sprintf "n = %d: one owned edge each" n) true
        (Seq.for_all
           (fun g ->
             Graph.m g = n
             && List.for_all (fun v -> Graph.owned_degree g v = 1)
                  (Graph.vertices g))
           nets))
    [ (3, 2); (4, 30); (5, 444); (6, 7_360) ];
  (* no unit-budget cycle of either kind below n = 6 *)
  List.iter
    (fun (dist, n, rule) ->
      let e =
        Statespace.explore ~rule (Model.make Model.Asg dist n)
          (Gen.unit_budget_networks n)
      in
      let name = Printf.sprintf "n = %d sweep" n in
      check_int (name ^ ": every state") (unit_budget_count n)
        e.Statespace.explored;
      check (name ^ ": no cycle") true (Option.is_none e.Statespace.cycle))
    (List.concat_map
       (fun dist ->
         List.concat_map
           (fun n ->
             [ (dist, n, Statespace.All_improving);
               (dist, n, Statespace.Best_responses) ])
           [ 3; 4; 5 ])
       [ Model.Sum; Model.Max ])

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
      Alcotest.test_case "best-response tags on the gadgets" `Quick
        test_tags_on_gadgets;
      Alcotest.test_case "many roots" `Quick test_many_roots;
      Alcotest.test_case "classification at small budgets" `Quick
        test_classify_small_budgets;
      Alcotest.test_case "unit-budget networks and sweeps" `Quick
        test_unit_budget_generator;
    ] )
