(* Tests for the game layer: costs, models, moves, responses. *)
open Ncg_graph
open Ncg_game
module Q = Ncg_rational.Q

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let test_cost_compare () =
  let alpha = Q.make 15 2 in
  (* 7 < alpha < 8 *)
  let c a b = Cost.compare ~unit_price:alpha a b in
  let fin e d = Cost.connected ~edge_units:e ~dist:d in
  (* alpha + 15 < 23 iff alpha < 8: the Fig. 9 comparison *)
  check "a+15 < 0+23" true (c (fin 1 15) (fin 0 23) < 0);
  (* 16 < 9 + alpha iff alpha > 7 *)
  check "0+16 < 1+9" true (c (fin 0 16) (fin 1 9) < 0);
  check "equal" true (c (fin 2 0) (fin 0 15) = 0);
  (* 2*7.5 = 15 *)
  check "disconnected is max" true (c Cost.disconnected (fin 100 1000) > 0);
  check "disconnected equal" true (c Cost.disconnected Cost.disconnected = 0);
  check "lt" true (Cost.lt ~unit_price:alpha (fin 0 1) (fin 0 2));
  check "le refl" true (Cost.le ~unit_price:alpha (fin 1 1) (fin 1 1))

let test_cost_arith () =
  let fin e d = Cost.connected ~edge_units:e ~dist:d in
  check "add" true (Cost.add (fin 1 2) (fin 3 4) = fin 4 6);
  check "add inf" true (Cost.add (fin 1 2) Cost.disconnected = Cost.disconnected);
  check "zero neutral" true (Cost.add Cost.zero (fin 1 2) = fin 1 2);
  check "is_finite" true (Cost.is_finite (fin 0 0));
  check "not finite" false (Cost.is_finite Cost.disconnected);
  Alcotest.(check string) "print" "3u+17" (Cost.to_string (fin 3 17));
  Alcotest.(check string) "print dist only" "17" (Cost.to_string (fin 0 17));
  Alcotest.(check string) "print inf" "inf" (Cost.to_string Cost.disconnected);
  check "to_q" true
    (Cost.to_q ~unit_price:(Q.make 1 2) (fin 3 1) = Some (Q.make 5 2));
  check "to_float inf" true
    (Cost.to_float ~unit_price:Q.one Cost.disconnected = infinity);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Cost.connected") (fun () ->
      ignore (Cost.connected ~edge_units:(-1) ~dist:0))

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model () =
  let m = Model.make ~alpha:(Q.of_int 3) Model.Bilateral Model.Max 5 in
  check "bilateral unit price = alpha/2" true
    (Q.equal (Model.unit_price m) (Q.make 3 2));
  let g = Graph.of_edges 5 [ (0, 1); (0, 2); (3, 0) ] in
  check_int "bilateral edge units = degree" 3 (Model.edge_units m g 0);
  let asg = Model.make Model.Asg Model.Sum 5 in
  check_int "swap games pay nothing" 0 (Model.edge_units asg g 0);
  let gbg = Model.make Model.Gbg Model.Sum 5 in
  check_int "buy games pay owned degree" 2 (Model.edge_units gbg g 0);
  check "ownership relevant" true (Model.uses_ownership gbg);
  check "SG ignores ownership" false
    (Model.uses_ownership (Model.make Model.Sg Model.Sum 5));
  Alcotest.(check string) "name" "SUM-ASG" (Model.game_name asg);
  Alcotest.check_raises "alpha must be positive"
    (Invalid_argument "Model.make: alpha must be positive") (fun () ->
      ignore (Model.make ~alpha:Q.zero Model.Bg Model.Sum 3))

(* ------------------------------------------------------------------ *)
(* Agents                                                              *)
(* ------------------------------------------------------------------ *)

let test_agent_costs () =
  let model = Model.make Model.Sg Model.Max 5 in
  let g = Gen.path 5 in
  check "end cost = ecc 4" true
    (Agents.cost model g 0 = Cost.connected ~edge_units:0 ~dist:4);
  check "center cost 2" true
    (Agents.cost model g 2 = Cost.connected ~edge_units:0 ~dist:2);
  let sum_model = Model.make Model.Sg Model.Sum 5 in
  check "sum cost" true
    (Agents.cost sum_model g 0 = Cost.connected ~edge_units:0 ~dist:10);
  Alcotest.(check (list int)) "max cost agents" [ 0; 4 ]
    (Agents.max_cost_agents model g);
  Alcotest.(check (list int)) "center vertices" [ 2 ]
    (Agents.center_vertices model g);
  let v = Agents.sorted_cost_vector model g in
  check "sorted non-increasing" true
    (v = [| Cost.connected ~edge_units:0 ~dist:4;
            Cost.connected ~edge_units:0 ~dist:4;
            Cost.connected ~edge_units:0 ~dist:3;
            Cost.connected ~edge_units:0 ~dist:3;
            Cost.connected ~edge_units:0 ~dist:2 |])

let test_social_cost () =
  let model = Model.make Model.Sg Model.Sum 3 in
  let g = Gen.path 3 in
  (* costs: 3, 2, 3 *)
  check "social cost sums" true
    (Agents.social_cost model g = Cost.connected ~edge_units:0 ~dist:8);
  let d = Graph.create 3 in
  check "disconnected social cost" true
    (Agents.social_cost model d = Cost.disconnected)

let test_vector_compare () =
  let model = Model.make Model.Sg Model.Max 3 in
  let fin d = Cost.connected ~edge_units:0 ~dist:d in
  check "lex smaller" true
    (Agents.compare_cost_vectors model [| fin 3; fin 2 |] [| fin 3; fin 3 |]
     < 0);
  check "prefix smaller" true
    (Agents.compare_cost_vectors model [| fin 3 |] [| fin 3; fin 1 |] < 0);
  check "equal" true
    (Agents.compare_cost_vectors model [| fin 3 |] [| fin 3 |] = 0)

(* ------------------------------------------------------------------ *)
(* Move                                                                *)
(* ------------------------------------------------------------------ *)

let test_move_apply_undo () =
  let g = Gen.path 4 in
  let snapshot = Canonical.key g in
  let moves =
    [ Move.Swap { agent = 0; remove = 1; add = 3 };
      Move.Buy { agent = 0; target = 2 };
      Move.Delete { agent = 0; target = 1 };
      Move.Set_own_edges { agent = 0; targets = [ 2; 3 ] };
      Move.Set_neighbors { agent = 0; targets = [ 2 ] } ]
  in
  List.iter
    (fun m ->
      let token = Move.apply g m in
      Move.undo g token;
      Alcotest.(check string)
        (Printf.sprintf "undo restores after %s" (Move.to_string m))
        snapshot (Canonical.key g))
    moves

let test_move_errors () =
  let g = Gen.path 4 in
  let raises name m =
    match Move.apply g m with
    | _ -> Alcotest.failf "%s should fail" name
    | exception Invalid_argument _ -> ()
  in
  raises "swap absent" (Move.Swap { agent = 0; remove = 2; add = 3 });
  raises "swap onto existing" (Move.Swap { agent = 1; remove = 0; add = 2 });
  raises "swap onto self" (Move.Swap { agent = 0; remove = 1; add = 0 });
  raises "buy existing" (Move.Buy { agent = 0; target = 1 });
  raises "buy self" (Move.Buy { agent = 0; target = 0 });
  raises "delete absent" (Move.Delete { agent = 0; target = 3 })

let test_move_effects () =
  let g = Gen.path 4 in
  check "swap kind" true
    (Move.classify_effect g (Move.Swap { agent = 0; remove = 1; add = 3 })
     = Move.Kswap);
  check "jump classified by net effect: buy" true
    (Move.classify_effect g
       (Move.Set_own_edges { agent = 0; targets = [ 1; 2 ] })
     = Move.Kbuy);
  check "jump classified: delete" true
    (Move.classify_effect g (Move.Set_own_edges { agent = 0; targets = [] })
     = Move.Kdelete);
  check "jump classified: swap" true
    (Move.classify_effect g
       (Move.Set_own_edges { agent = 0; targets = [ 3 ] })
     = Move.Kswap);
  check "true jump" true
    (Move.classify_effect g
       (Move.Set_own_edges { agent = 0; targets = [ 2; 3 ] })
     = Move.Kjump);
  check "move equality up to order" true
    (Move.equal
       (Move.Set_own_edges { agent = 0; targets = [ 2; 3 ] })
       (Move.Set_own_edges { agent = 0; targets = [ 3; 2 ] }));
  check_int "agent" 2 (Move.agent (Move.Buy { agent = 2; target = 0 }))

let test_with_applied_exception_safe () =
  let g = Gen.path 4 in
  let key = Canonical.key g in
  (try
     Move.with_applied g (Move.Buy { agent = 0; target = 2 }) (fun _ ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "restored after exception" key (Canonical.key g)

(* qcheck: random move sequences applied then undone in reverse restore. *)
let prop_apply_undo =
  QCheck.Test.make ~count:200 ~name:"random apply/undo stack restores state"
    QCheck.(pair (int_bound 10_000) (int_range 4 10))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng n 0.3 in
      let key = Canonical.key g in
      let tokens = ref [] in
      for _ = 1 to 8 do
        let u = Random.State.int rng n in
        let v = Random.State.int rng n in
        if u <> v then
          if Graph.has_edge g u v then begin
            if Graph.owns g u v && Graph.m g > 1 then
              tokens :=
                Move.apply g (Move.Delete { agent = u; target = v })
                :: !tokens
          end
          else
            tokens := Move.apply g (Move.Buy { agent = u; target = v })
                      :: !tokens
      done;
      List.iter (Move.undo g) !tokens;
      Canonical.key g = key)

(* ------------------------------------------------------------------ *)
(* Response                                                            *)
(* ------------------------------------------------------------------ *)

let test_candidate_counts () =
  let g = Gen.path 4 in
  (* agent 1 owns edge to 2 (path ownership i -> i+1), has neighbors 0,2 *)
  let count model u = Seq.length (Response.candidates model g u) in
  let sg = Model.make Model.Sg Model.Sum 4 in
  (* agent 1: two incident edges x two targets (non-neighbors: 3) = 2 *)
  check_int "SG swaps" 2 (count sg 1);
  let asg = Model.make Model.Asg Model.Sum 4 in
  check_int "ASG swaps (own edges only)" 1 (count asg 1);
  check_int "ASG leaf-side owner" 2 (count asg 0);
  (* agent 3 owns nothing *)
  check_int "ASG non-owner has no moves" 0 (count asg 3);
  let gbg = Model.make Model.Gbg Model.Sum 4 in
  (* agent 1: 1 delete + 1 swap + 1 buy (target 3) *)
  check_int "GBG moves" 3 (count gbg 1);
  let bg = Model.make Model.Bg Model.Sum 4 in
  (* partners of 1: {0?,2?,3}: 0 is owned-by-0 edge to 1 -> excluded;
     2 owned by 1 -> included; 3 free -> included. subsets of {2,3} minus
     current {2} = 3 *)
  check_int "BG strategies" 3 (count bg 1);
  let bil = Model.make Model.Bilateral Model.Sum 4 in
  (* neighbor sets over {0,2,3} minus current {0,2} = 7 *)
  check_int "bilateral strategies" 7 (count bil 1)

let test_host_restricts () =
  let host = Host.of_graph (Gen.cycle 4) in
  let model = Model.make ~host Model.Gbg Model.Sum 4 in
  let g = Gen.path 4 in
  (* agent 0 may only buy 0-3 (cycle edge) *)
  let buys =
    Seq.filter
      (fun m -> match m with Move.Buy _ -> true | _ -> false)
      (Response.candidates model g 0)
    |> List.of_seq
  in
  check "host limits buys" true
    (buys = [ Move.Buy { agent = 0; target = 3 } ])

let test_best_response_star () =
  (* On a star, nobody can improve in the SUM-SG: it is stable. *)
  let model = Model.make Model.Sg Model.Sum 6 in
  check "star stable" true (Response.is_stable model (Gen.star 6));
  Alcotest.(check (list int)) "no unhappy agents" []
    (Response.unhappy_agents model (Gen.star 6))

let test_best_response_path () =
  (* On P_5 in the MAX-SG, the ends are unhappy; a best response of agent 0
     moves to the center (Observation 2.13). *)
  let model = Model.make Model.Sg Model.Max 5 in
  let g = Gen.path 5 in
  check "end unhappy" true (Response.is_unhappy model g 0);
  check "center happy" false (Response.is_unhappy model g 2);
  let best = Response.best_moves model g 0 in
  check "best swap goes to center" true
    (List.exists
       (fun e -> Move.equal e.Response.move
            (Move.Swap { agent = 0; remove = 1; add = 2 }))
       best);
  List.iter
    (fun e ->
      check "best achieves ecc 3" true
        (e.Response.after = Cost.connected ~edge_units:0 ~dist:3))
    best

let test_gbg_brute_force_agreement () =
  (* GBG best response must match brute force over its candidate set. *)
  let alpha = Q.make 5 2 in
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 20 do
    let n = 5 + Random.State.int rng 4 in
    let g = Gen.random_connected rng n 0.3 in
    let model = Model.make ~alpha Model.Gbg Model.Sum n in
    let u = Random.State.int rng n in
    let best = Response.best_moves model g u in
    let all =
      Seq.map (fun m -> Response.evaluate model g m)
        (Response.candidates model g u)
      |> List.of_seq
    in
    let before = Agents.cost model g u in
    let better =
      List.filter
        (fun e -> Cost.lt ~unit_price:alpha e.Response.after before)
        all
    in
    match (best, better) with
    | [], [] -> ()
    | [], _ :: _ -> Alcotest.fail "missed an improving move"
    | e :: _, _ ->
        let manual_best =
          List.fold_left
            (fun acc x ->
              if Cost.lt ~unit_price:alpha x.Response.after acc then
                x.Response.after
              else acc)
            (List.hd better).Response.after better
        in
        check "best matches brute force" true
          (Cost.compare ~unit_price:alpha e.Response.after manual_best = 0)
  done

let test_bilateral_blocking () =
  (* Fig. 16's G2: c's move towards e is blocked by e. *)
  let inst = Ncg_instances.Fig16_max_bilateral.instance in
  let g = Graph.copy inst.Ncg_instances.Instance.initial in
  let model = inst.Ncg_instances.Instance.model in
  ignore (Move.apply g (Move.Set_neighbors { agent = 0; targets = [ 1; 4 ] }));
  let blocked = Move.Set_neighbors { agent = 2; targets = [ 1; 4 ] } in
  check "blockers found" true (Response.blockers model g blocked = [ 4 ]);
  check "feasible is false" false (Response.feasible model g blocked);
  let fine = Move.Set_neighbors { agent = 2; targets = [ 1 ] } in
  check "deletion unilateral" true (Response.feasible model g fine);
  check "other games never blocked" true
    (Response.blockers (Model.make Model.Gbg Model.Sum 4) (Gen.path 4)
       (Move.Buy { agent = 0; target = 2 })
     = [])

let test_multi_swap () =
  let model = Model.make Model.Asg Model.Sum 5 in
  let g = Gen.path 5 in
  (* agent 0 owns one edge: multi swaps = single swaps = 3 targets *)
  check_int "unit multi-swap count" 3
    (Seq.length (Response.multi_swap_candidates model g 0));
  let gbg = Model.make Model.Gbg Model.Sum 5 in
  Alcotest.check_raises "GBG multi-swap rejected"
    (Invalid_argument "Response.multi_swap_candidates: (A)SG only")
    (fun () ->
      let _seq : Move.t Seq.t = Response.multi_swap_candidates gbg g 0 in
      ())

let test_exhaustive_limit () =
  let model = Model.make Model.Bg Model.Sum 30 in
  let g = Gen.star 30 in
  check "limit documented" true (Response.exhaustive_limit = 20);
  match
    (fun () ->
      let _seq : Move.t Seq.t = Response.candidates model g 0 in
      ())
      ()
  with
  | () -> Alcotest.fail "BG on 30 vertices should refuse"
  | exception Invalid_argument _ -> ()

(* Cross-game response invariants over random networks. *)
let arb_response_case =
  QCheck.make
    ~print:(fun (seed, n, game) ->
      Printf.sprintf "seed=%d n=%d game=%d" seed n game)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 4 9) (int_bound 2))

let model_of_case n = function
  | 0 -> Model.make Model.Sg Model.Sum n
  | 1 -> Model.make Model.Asg Model.Max n
  | _ -> Model.make ~alpha:(Q.make 5 2) Model.Gbg Model.Sum n

let prop_response_invariants =
  QCheck.Test.make ~count:150 ~name:"response invariants (improving/best)"
    arb_response_case
    (fun (seed, n, game) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng n 0.3 in
      let model = model_of_case n game in
      let unit_price = Model.unit_price model in
      List.for_all
        (fun u ->
          let before = Agents.cost model g u in
          let improving = Response.improving_moves model g u in
          let best = Response.best_moves model g u in
          (* every improving move strictly improves and leaves the graph
             unchanged after evaluation *)
          List.for_all
            (fun e -> Cost.lt ~unit_price e.Response.after before)
            improving
          (* best moves are improving moves *)
          && List.for_all
               (fun b ->
                 List.exists
                   (fun e -> Move.equal e.Response.move b.Response.move)
                   improving)
               best
          (* all best moves share one resulting cost, minimal among
             improving *)
          && (match best with
             | [] -> improving = []
             | b :: _ ->
                 List.for_all
                   (fun e ->
                     Cost.le ~unit_price b.Response.after e.Response.after)
                   improving)
          (* unhappiness agrees with the move lists *)
          && Response.is_unhappy model g u = (improving <> []))
        (Graph.vertices g))

let prop_evaluation_is_pure =
  QCheck.Test.make ~count:100 ~name:"evaluation never mutates the network"
    arb_response_case
    (fun (seed, n, game) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng n 0.3 in
      let model = model_of_case n game in
      let key = Canonical.key g in
      List.iter (fun u -> ignore (Response.best_moves model g u))
        (Graph.vertices g);
      Canonical.key g = key)

(* Two bilateral states where a mover's cheapest candidate is one the
   gadget names as blocked, and a feasible best response follows it in
   enumeration order: consent is asked only of improving candidates, and
   a blocked one must not tighten the fast scan's best-response
   threshold, or that later best response would be pruned. *)
let test_blocked_cheapest_candidate () =
  let module I = Ncg_instances.Instance in
  let pinned (inst : I.t) ~prefix u blocked =
    let model = inst.I.model in
    let unit_price = Model.unit_price model in
    let g = List.nth (I.states inst) prefix in
    let cheapest = (Response.evaluate model g blocked).Response.after in
    let scored =
      List.of_seq
        (Seq.map (Response.evaluate model g) (Response.candidates model g u))
    in
    let improving = Response.improving_moves model g u in
    let best = Response.best_moves model g u in
    check "the named move is blocked" false (Response.feasible model g blocked);
    check "and no candidate is cheaper" true
      (List.for_all
         (fun e -> Cost.le ~unit_price cheapest e.Response.after)
         scored);
    let index m =
      let rec go i = function
        | [] -> -1
        | e :: rest ->
            if Move.equal e.Response.move m then i else go (i + 1) rest
      in
      go 0 scored
    in
    check "a best response follows it" true
      (List.exists (fun b -> index b.Response.move > index blocked) best);
    let ctx () =
      Response.Fast.of_cache
        (Paths.Workspace.create (Graph.n g))
        model g
        (Distcache.create (Graph.n g))
    in
    check "fast improving moves = naive" true
      (Response.Fast.improving_moves (ctx ()) u = improving);
    check "fast best moves = naive" true
      (Response.Fast.best_moves (ctx ()) u = best);
    check "a blocked prior seeds nothing" true
      (Response.Fast.best_moves ~prior:blocked (ctx ()) u = best);
    check "a blocked witness does not revalidate" true
      (Response.Fast.revalidate (ctx ()) blocked = None)
  in
  (* Fig. 15 after two steps: e's {c,j,k} (3u+22) is blocked by c, and
     her one feasible improving move (4u+17) comes later. *)
  pinned Ncg_instances.Fig15_sum_bilateral.instance ~prefix:2 4
    (Move.Set_neighbors { agent = 4; targets = [ 2; 9; 10 ] });
  (* Fig. 16 after two steps: e's {b,d,h} (3u+3) is blocked, between her
     two feasible best responses (3u+4). *)
  pinned Ncg_instances.Fig16_max_bilateral.instance ~prefix:2 4
    (Move.Set_neighbors { agent = 4; targets = [ 1; 3; 7 ] })

let suite =
  ( "game",
    [
      Alcotest.test_case "exact cost comparison" `Quick test_cost_compare;
      Alcotest.test_case "cost arithmetic" `Quick test_cost_arith;
      Alcotest.test_case "models" `Quick test_model;
      Alcotest.test_case "agent costs" `Quick test_agent_costs;
      Alcotest.test_case "social cost" `Quick test_social_cost;
      Alcotest.test_case "cost vector order" `Quick test_vector_compare;
      Alcotest.test_case "move apply/undo" `Quick test_move_apply_undo;
      Alcotest.test_case "move errors" `Quick test_move_errors;
      Alcotest.test_case "move effects" `Quick test_move_effects;
      Alcotest.test_case "with_applied safety" `Quick
        test_with_applied_exception_safe;
      Alcotest.test_case "candidate counts" `Quick test_candidate_counts;
      Alcotest.test_case "host restriction" `Quick test_host_restricts;
      Alcotest.test_case "stable star" `Quick test_best_response_star;
      Alcotest.test_case "path best response" `Quick test_best_response_path;
      Alcotest.test_case "GBG vs brute force" `Quick
        test_gbg_brute_force_agreement;
      Alcotest.test_case "bilateral blocking" `Quick test_bilateral_blocking;
      Alcotest.test_case "multi swaps" `Quick test_multi_swap;
      Alcotest.test_case "exhaustive limit" `Quick test_exhaustive_limit;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_apply_undo; prop_response_invariants; prop_evaluation_is_pure ]
    @ [
        Alcotest.test_case "blocked cheapest candidate" `Quick
          test_blocked_cheapest_candidate;
      ] )
