(* Tests for the gadget instances: every claim of every shipped gadget,
   plus paper-prose spot checks that pin the reconstructions down. *)
open Ncg_graph
open Ncg_game
module I = Ncg_instances.Instance
module Q = Ncg_rational.Q

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let verify_case (inst : I.t) =
  Alcotest.test_case inst.I.name `Quick (fun () ->
      match I.Verify.run inst with
      | [] -> ()
      | fs ->
          Alcotest.failf "%d claim failures:\n%s" (List.length fs)
            (String.concat "\n"
               (List.map (Format.asprintf "  %a" I.Verify.pp_failure) fs)))

let test_catalog () =
  check_int "eleven shipped instances" 11
    (List.length Ncg_instances.Catalog.all);
  check "lookup works" true
    (Ncg_instances.Catalog.find "fig9-sum-gbg" <> None);
  check "unknown lookup" true (Ncg_instances.Catalog.find "nope" = None);
  (* names are unique *)
  let names = Ncg_instances.Catalog.names () in
  check "unique names" true
    (List.length names = List.length (List.sort_uniq compare names))

let test_states () =
  let inst = Ncg_instances.Fig9_sum_gbg.instance in
  let states = I.states inst in
  check_int "G1..G7 snapshots" 7 (List.length states);
  (* last snapshot equals the first (exact closure) *)
  (match (states, List.rev states) with
  | first :: _, last :: _ -> check "closure" true (Graph.equal first last)
  | _, _ -> Alcotest.fail "no states")

let test_fig9_prose () =
  (* Spot checks straight from the proof of Theorem 4.1 (SUM). *)
  let inst = Ncg_instances.Fig9_sum_gbg.instance in
  let model = inst.I.model in
  let g = Graph.copy inst.I.initial in
  check "alpha is 15/2" true
    (Q.equal model.Model.alpha (Q.make 15 2));
  (* g's cost in G1 is alpha + 21 *)
  check "g costs alpha+21" true
    (Agents.cost model g 6 = Cost.connected ~edge_units:1 ~dist:21);
  (* after the swap, alpha + 15 *)
  ignore (Move.apply g (Move.Swap { agent = 6; remove = 5; add = 2 }));
  check "g costs alpha+15 in G2" true
    (Agents.cost model g 6 = Cost.connected ~edge_units:1 ~dist:15);
  (* f's buy decreases 19 -> 11 + alpha *)
  check "f costs 19 in G2" true
    (Agents.cost model g 5 = Cost.connected ~edge_units:0 ~dist:19);
  ignore (Move.apply g (Move.Buy { agent = 5; target = 1 }));
  check "f costs alpha+11 in G3" true
    (Agents.cost model g 5 = Cost.connected ~edge_units:1 ~dist:11)

let test_fig2_prose () =
  (* Exactly a1, a3, b3, c3 have eccentricity 3, the rest 2 (Thm 2.16). *)
  let inst = Ncg_instances.Fig2_max_sg.instance in
  let g = inst.I.initial in
  match Paths.eccentricities g with
  | None -> Alcotest.fail "disconnected"
  | Some ecc ->
      Alcotest.(check (array int))
        "eccentricity profile" [| 3; 2; 3; 2; 2; 3; 2; 2; 3 |] ecc

let test_fig2_rotation () =
  (* One swap advances the state to an isomorphic network. *)
  let inst = Ncg_instances.Fig2_max_sg.instance in
  let g = Graph.copy inst.I.initial in
  ignore (Move.apply g (Move.Swap { agent = 0; remove = 3; add = 6 }));
  check "G2 isomorphic to G1" true
    (Canonical.isomorphism ~respect_ownership:false g inst.I.initial <> None)

let test_fig3_prose () =
  (* The four cost values computed in the proof of Theorem 3.3. *)
  let inst = Ncg_instances.Fig3_sum_asg.instance in
  let model = inst.I.model in
  let states = Array.of_list (I.states inst) in
  let dist_cost g u =
    match Agents.cost model g u with
    | Cost.Connected { dist; _ } -> dist
    | Cost.Disconnected -> -1
  in
  let f = 5 and b = 1 in
  check_int "f costs 55 in G1" 55 (dist_cost states.(0) f);
  check_int "f costs 51 in G2" 51 (dist_cost states.(1) f);
  check_int "b costs 48 in G2" 48 (dist_cost states.(1) b);
  check_int "b costs 47 in G3" 47 (dist_cost states.(2) b);
  check_int "f costs 58 in G3" 58 (dist_cost states.(2) f);
  check_int "f costs 57 in G4" 57 (dist_cost states.(3) f);
  check_int "b costs 51 in G4" 51 (dist_cost states.(3) b)

let test_fig15_prose () =
  let inst = Ncg_instances.Fig15_sum_bilateral.instance in
  let model = inst.I.model in
  let g = inst.I.initial in
  check "alpha = 11 in (10,12)" true (Q.equal model.Model.alpha (Q.of_int 11));
  (* symmetric pair d, e both at 4 units + 17 *)
  check "d cost" true
    (Agents.cost model g 3 = Cost.connected ~edge_units:4 ~dist:17);
  check "e cost" true
    (Agents.cost model g 4 = Cost.connected ~edge_units:4 ~dist:17);
  (* the network has an automorphism swapping d and e (the proof's
     symmetry argument) *)
  let automorphism f =
    Canonical.unowned_key (Canonical.relabel g f) = Canonical.unowned_key g
  in
  check "d-e symmetry" true
    (automorphism [| 0; 1; 2; 4; 3; 5; 6; 9; 10; 7; 8 |]
    || automorphism [| 2; 1; 0; 4; 3; 6; 5; 9; 10; 7; 8 |])

let test_fig16_prose () =
  let inst = Ncg_instances.Fig16_max_bilateral.instance in
  let model = inst.I.model in
  let g = inst.I.initial in
  (* a has eccentricity 5 paying half of alpha=3 per edge *)
  check "a cost" true
    (Agents.cost model g 0 = Cost.connected ~edge_units:1 ~dist:5);
  check "unit price is alpha/2" true
    (Q.equal (Model.unit_price model) (Q.make 3 2))

let test_fig10_prose () =
  let inst = Ncg_instances.Fig10_max_gbg.instance in
  let model = inst.I.model in
  let g = Graph.copy inst.I.initial in
  (* g: 5 -> 3+alpha by buying ga; e: 4 -> 2+alpha *)
  check "g ecc 5" true
    (Agents.cost model g 6 = Cost.connected ~edge_units:0 ~dist:5);
  ignore (Move.apply g (Move.Buy { agent = 6; target = 0 }));
  check "g ecc 3 after buy" true
    (Agents.cost model g 6 = Cost.connected ~edge_units:1 ~dist:3);
  check "e ecc 4 in G2" true
    (Agents.cost model g 4 = Cost.connected ~edge_units:0 ~dist:4);
  ignore (Move.apply g (Move.Buy { agent = 4; target = 0 }));
  check "e ecc 2 in G3" true
    (Agents.cost model g 4 = Cost.connected ~edge_units:1 ~dist:2)

let test_fig6_prose () =
  (* The proof's exact tie sets and the unit-budget invariant. *)
  let inst = Ncg_instances.Fig6_max_asg_budget.instance in
  let model = inst.I.model in
  let states = Array.of_list (I.states inst) in
  (* every agent owns exactly one edge in every state *)
  Array.iter
    (fun g ->
      List.iter
        (fun v -> check_int "unit budget" 1 (Graph.owned_degree g v))
        (Graph.vertices g))
    states;
  let best_targets g agent =
    List.sort compare
      (List.filter_map
         (fun e ->
           match e.Response.move with
           | Move.Swap { add; _ } -> Some add
           | Move.Buy _ | Move.Delete _ | Move.Set_own_edges _
           | Move.Set_neighbors _ -> None)
         (Response.best_moves model g agent))
  in
  let a1 = 0 and b1 = 6 in
  (* G1: a1 may swap to any of e2..e5 (vertices 15..18); in our
     reconstruction e6 happens to tie as well via the b-chain shortcut *)
  check "G1 ties include e2..e5" true
    (List.for_all
       (fun t -> List.mem t (best_targets states.(0) a1))
       [ 15; 16; 17; 18 ]);
  (* G2: b1 may swap to a2 or a3 *)
  Alcotest.(check (list int)) "G2 ties a2,a3" [ 1; 2 ]
    (best_targets states.(1) b1);
  (* G3: the proof allows e1, e2 or e3; in our reconstruction e1 is the
     unique best (a subset of the proof's tie set) *)
  check "G3 best within e1..e3, contains e1" true
    (let ts = best_targets states.(2) a1 in
     List.mem 14 ts && List.for_all (fun t -> List.mem t [ 14; 15; 16 ]) ts);
  (* G4: b1 may swap to a1 or e1 *)
  Alcotest.(check (list int)) "G4 ties a1,e1" [ 0; 14 ]
    (best_targets states.(3) b1);
  (* the undirected cycle of G2 has length 9 (the proof's count): the
     graph has 20 edges on 20 vertices, so cycle length = m - (spanning
     forest edges) ... simply check via girth-style BFS from a1 *)
  check "G2 contains the length-9 cycle edge a1-e5" true
    (Graph.has_edge states.(1) 0 18)

let test_fig5_budget () =
  let inst = Ncg_instances.Fig5_sum_asg_budget.instance in
  List.iter
    (fun g ->
      List.iter
        (fun v -> check_int "unit budget" 1 (Graph.owned_degree g v))
        (Graph.vertices g))
    (I.states inst);
  (* the better-response cycle is detected by the engine when the two
     toggling agents keep choosing it -- here we just re-verify closure *)
  check "fig5 n=19, m=19" true
    (Graph.n inst.I.initial = 19 && Graph.m inst.I.initial = 19)

let test_every_step_is_feasible_improving () =
  (* Generic sanity over the whole catalog: every scripted move is a
     feasible strict improvement for its mover. *)
  List.iter
    (fun (inst : I.t) ->
      let model = inst.I.model in
      let unit_price = Model.unit_price model in
      let g = Graph.copy inst.I.initial in
      List.iteri
        (fun i (s : I.step) ->
          let e = Response.evaluate model g s.I.move in
          if not (Response.feasible model g s.I.move) then
            Alcotest.failf "%s step %d infeasible" inst.I.name i;
          if not (Cost.lt ~unit_price e.Response.after e.Response.before)
          then Alcotest.failf "%s step %d not improving" inst.I.name i;
          ignore (Move.apply g s.I.move))
        inst.I.steps)
    Ncg_instances.Catalog.all

let test_verifier_catches_bad_claims () =
  (* The verifier must fail on a wrong claim, not rubber-stamp it. *)
  let good = Ncg_instances.Fig2_max_sg.instance in
  let bad =
    I.make ~name:"broken" ~description:"" ~model:good.I.model
      ~label:good.I.label ~initial:good.I.initial
      ~steps:
        [ { I.move = Move.Swap { agent = 0; remove = 3; add = 6 };
            claims = [ I.Unhappy_exactly [ 1 ] ] } ]
      ~closure:I.Open
  in
  check "bad claim detected" true (I.Verify.run bad <> []);
  Alcotest.check_raises "check raises" (Failure "") (fun () ->
      try I.Verify.check bad with Failure _ -> raise (Failure ""))

let suite =
  ( "instances",
    List.map verify_case Ncg_instances.Catalog.all
    @ [
        Alcotest.test_case "catalog" `Quick test_catalog;
        Alcotest.test_case "state snapshots" `Quick test_states;
        Alcotest.test_case "fig9 prose costs" `Quick test_fig9_prose;
        Alcotest.test_case "fig2 eccentricities" `Quick test_fig2_prose;
        Alcotest.test_case "fig2 rotation" `Quick test_fig2_rotation;
        Alcotest.test_case "fig3 prose costs" `Quick test_fig3_prose;
        Alcotest.test_case "fig15 prose costs" `Quick test_fig15_prose;
        Alcotest.test_case "fig16 prose costs" `Quick test_fig16_prose;
        Alcotest.test_case "fig10 prose costs" `Quick test_fig10_prose;
        Alcotest.test_case "fig6 prose ties" `Quick test_fig6_prose;
        Alcotest.test_case "fig5 unit budget" `Quick test_fig5_budget;
        Alcotest.test_case "all steps feasible+improving" `Quick
          test_every_step_is_feasible_improving;
        Alcotest.test_case "verifier catches errors" `Quick
          test_verifier_catches_bad_claims;
      ] )
