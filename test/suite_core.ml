(* Tests for the dynamics engine, policies, potentials and tree theory. *)
open Ncg_graph
open Ncg_game
open Ncg_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let max_sg n = Model.make Model.Sg Model.Max n
let sum_asg n = Model.make Model.Asg Model.Sum n

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

let test_policy_max_cost () =
  let model = max_sg 5 in
  let g = Gen.path 5 in
  let rng = Random.State.make [| 1 |] in
  let ws = Paths.Workspace.create 5 in
  match Policy.select Policy.Max_cost ~rng ~ws model g ~last:None with
  | Some u -> check "max cost policy picks an end of P5" true (u = 0 || u = 4)
  | None -> Alcotest.fail "someone is unhappy on P5"

let test_policy_converged () =
  let model = max_sg 5 in
  let g = Gen.star 5 in
  let rng = Random.State.make [| 1 |] in
  let ws = Paths.Workspace.create 5 in
  List.iter
    (fun p ->
      check "no mover on stable star" true
        (Policy.select p ~rng ~ws model g ~last:None = None))
    [ Policy.Max_cost; Policy.Random_unhappy; Policy.Round_robin ]

let test_policy_adversarial () =
  let model = max_sg 5 in
  let g = Gen.path 5 in
  let rng = Random.State.make [| 1 |] in
  let ws = Paths.Workspace.create 5 in
  let seen = ref [] in
  let p = Policy.Adversarial (fun _ unhappy -> seen := unhappy; None) in
  check "adversary may abort" true
    (Policy.select p ~rng ~ws model g ~last:None = None);
  Alcotest.(check (list int)) "adversary sees sorted unhappy set"
    [ 0; 1; 3; 4 ] !seen

(* On P5 under MAX-SG exactly {0, 1, 3, 4} are unhappy (the middle agent
   already has minimum eccentricity) — the fixture for the selection
   contract tests below. *)
let test_policy_round_robin_contract () =
  let model = max_sg 5 in
  let g = Gen.path 5 in
  let rng = Random.State.make [| 1 |] in
  let ws = Paths.Workspace.create 5 in
  let pick last =
    Policy.select Policy.Round_robin ~rng ~ws model g ~last
  in
  check "first sweep starts at 0" true (pick None = Some 0);
  check "continues after the last mover" true (pick (Some 0) = Some 1);
  check "skips the happy agent in between" true (pick (Some 1) = Some 3);
  check "a happy last mover still anchors the sweep" true
    (pick (Some 2) = Some 3);
  check "wraps around past the end" true (pick (Some 4) = Some 0);
  (* fairness: starting after u, agent u is probed last — from last=3 the
     next unhappy agent is 4, never 3 again *)
  check "last mover goes to the back of the queue" true (pick (Some 3) = Some 4)

let test_policy_only_unhappy_selected () =
  (* Selection contract: whatever the policy, the chosen agent has an
     improving move.  Fuzzed over random networks and both paths. *)
  let rng0 = Random.State.make [| 77 |] in
  for _ = 1 to 20 do
    let n = 4 + Random.State.int rng0 8 in
    let g = Gen.random_budget_network rng0 n 2 in
    let model = sum_asg n in
    let ws = Paths.Workspace.create n in
    let witness = Witness.create n in
    List.iter
      (fun policy ->
        let seed = Random.State.int rng0 10_000 in
        let naive =
          Policy.select policy
            ~rng:(Random.State.make [| seed |])
            ~ws model g ~last:None
        in
        let ctx = Response.Fast.of_cache ws model g (Distcache.create n) in
        let fast =
          Policy.select_fast policy
            ~rng:(Random.State.make [| seed |])
            ~ctx ~witness model g ~last:None
        in
        check "fast selection = naive selection" true (naive = fast);
        match naive with
        | Some u ->
            check "selected agent is unhappy" true
              (Response.is_unhappy model g u)
        | None ->
            check "no selection only at stability" true
              (Response.is_stable model g))
      [ Policy.Max_cost; Policy.Random_unhappy; Policy.Round_robin ]
  done

let test_policy_adversarial_contract () =
  let model = max_sg 5 in
  let g = Gen.path 5 in
  let ws = Paths.Workspace.create 5 in
  let rng = Random.State.make [| 1 |] in
  (* the scheduler's pick is honored verbatim *)
  let picky = Policy.Adversarial (fun _ unhappy -> Some (List.hd (List.rev unhappy))) in
  check "adversary's pick is used" true
    (Policy.select picky ~rng ~ws model g ~last:None = Some 4);
  (* the fast path hands the adversary the identical sorted unhappy set *)
  let seen_naive = ref [] and seen_fast = ref [] in
  let spy cell = Policy.Adversarial (fun _ unhappy -> cell := unhappy; None) in
  ignore (Policy.select (spy seen_naive) ~rng ~ws model g ~last:None);
  let ctx = Response.Fast.of_cache ws model g (Distcache.create 5) in
  let witness = Witness.create 5 in
  ignore
    (Policy.select_fast (spy seen_fast) ~rng ~ctx ~witness model g ~last:None);
  Alcotest.(check (list int)) "fast adversary sees the same unhappy set"
    !seen_naive !seen_fast;
  check "every offered agent is genuinely unhappy" true
    (List.for_all (fun u -> Response.is_unhappy model g u) !seen_fast)

(* The engine has one path.  Three config fields and two settings stay
   only for benchmark/replica.ml, and only at the values it uses. *)
let test_replica_settings_fixed () =
  let model = max_sg 5 in
  let g = Gen.path 5 in
  let ws = Paths.Workspace.create 5 in
  let ctx = Response.Fast.of_cache ws model g (Distcache.create 5) in
  let witness = Witness.create 5 in
  let select ~domains =
    Policy.select_fast Policy.Max_cost
      ~rng:(Random.State.make [| 1 |])
      ~ctx ~witness ~domains model g ~last:None
  in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check "select_fast ~domains:2 raises" true
    (raises (fun () -> select ~domains:2));
  check "set_prefilter false raises" true
    (raises (fun () -> Response.Fast.set_prefilter ctx false));
  Response.Fast.set_prefilter ctx true;
  check "select_fast ~domains:1 = naive selection" true
    (select ~domains:1
    = Policy.select Policy.Max_cost
        ~rng:(Random.State.make [| 1 |])
        ~ws model g ~last:None);
  let cfg = Engine.config model in
  check "config fields hold their constants" true
    (cfg.Engine.scan_domains = 1 && cfg.Engine.incremental
   && cfg.Engine.sublinear)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_converges_tree () =
  let model = max_sg 9 in
  let r = Engine.run (Engine.config model) (Gen.path 9) in
  check "converged" true (Engine.converged r);
  check "final stable" true (Response.is_stable model r.Engine.final);
  check "within Thm 2.1 bound" true
    (r.Engine.steps <= Theory.thm21_step_bound 9);
  check "stable tree is star or double star" true
    (match Theory.tree_shape r.Engine.final with
    | Theory.Star | Theory.Double_star -> true
    | Theory.Other_tree | Theory.Not_a_tree -> false)

let test_engine_deterministic () =
  let model = sum_asg 12 in
  let g = Gen.random_budget_network (Random.State.make [| 3 |]) 12 2 in
  let run seed =
    let r =
      Engine.run ~rng:(Random.State.make [| seed |]) (Engine.config model) g
    in
    (r.Engine.steps, Canonical.key r.Engine.final)
  in
  check "same seed same run" true (run 42 = run 42)

let test_engine_history () =
  let model = max_sg 7 in
  let r = Engine.run (Engine.config model) (Gen.path 7) in
  check_int "history length = steps" r.Engine.steps
    (List.length r.Engine.history);
  (* every recorded move strictly improved its mover *)
  let unit_price = Model.unit_price model in
  check "movers strictly improve" true
    (List.for_all
       (fun (s : Engine.step) ->
         Cost.lt ~unit_price s.Engine.cost_after s.Engine.cost_before)
       r.Engine.history);
  check "indices sequential" true
    (List.mapi (fun i _ -> i) r.Engine.history
    = List.map (fun (s : Engine.step) -> s.Engine.index) r.Engine.history);
  (* input graph untouched *)
  check "input preserved" true (Graph.equal (Gen.path 7) (Gen.path 7))

let test_engine_step_limit () =
  let model = max_sg 15 in
  let cfg = Engine.config ~max_steps:1 model in
  let r = Engine.run cfg (Gen.path 15) in
  check "step limit reported" true (r.Engine.reason = Engine.Step_limit);
  check_int "exactly one step" 1 r.Engine.steps

let test_engine_cycle_detection () =
  (* Fig. 3 has a unique unhappy agent with a unique best response in every
     state, so any policy and tie-break must fall into its 4-cycle. *)
  let inst = Ncg_instances.Fig3_sum_asg.instance in
  let cfg =
    Engine.config ~detect_cycles:true ~max_steps:50
      inst.Ncg_instances.Instance.model
  in
  let r = Engine.run cfg inst.Ncg_instances.Instance.initial in
  match r.Engine.reason with
  | Engine.Cycle_detected { period; _ } ->
      check_int "Fig. 3 cycle has period 4" 4 period
  | Engine.Converged | Engine.Step_limit | Engine.Time_limit
  | Engine.Invariant_violation _ ->
      Alcotest.fail "Fig. 3 must cycle"

let test_engine_any_improving () =
  (* Better-response dynamics on SUM-SG trees: the social-cost potential
     guarantees convergence even without best responses. *)
  let model = Model.make Model.Sg Model.Sum 10 in
  let cfg =
    Engine.config ~policy:Policy.Random_unhappy
      ~move_rule:Engine.Any_improving model
  in
  let g = Gen.random_tree (Random.State.make [| 11 |]) 10 in
  let r = Engine.run cfg g in
  check "better-response dynamics converge on trees" true
    (Engine.converged r);
  check "result stable" true (Response.is_stable model r.Engine.final)

let test_engine_round_robin () =
  let model = max_sg 8 in
  let cfg = Engine.config ~policy:Policy.Round_robin model in
  let r = Engine.run cfg (Gen.path 8) in
  check "round robin converges" true (Engine.converged r);
  check "round robin stable" true (Response.is_stable model r.Engine.final)

let test_engine_prefer_deletion () =
  (* With the deletion preference, a GBG agent whose best responses
     include a deletion must delete. *)
  let model =
    Model.make ~alpha:(Ncg_rational.Q.of_int 50) Model.Gbg Model.Sum 5
  in
  (* expensive alpha: deleting a redundant edge is the clear best move *)
  let g = Gen.star 5 in
  Graph.add_edge g ~owner:1 1 2;
  let cfg =
    Engine.config ~tie_break:Engine.Prefer_deletion ~max_steps:1 model
  in
  let r = Engine.run cfg g in
  (match r.Engine.history with
  | [ s ] ->
      check "first move is a deletion" true (s.Engine.effect = Move.Kdelete)
  | _ -> Alcotest.fail "expected exactly one step")

let test_engine_already_stable () =
  let model = max_sg 6 in
  let r = Engine.run (Engine.config model) (Gen.star 6) in
  check_int "zero steps on stable input" 0 r.Engine.steps;
  check "converged" true (Engine.converged r)

let prop_engine_tree_convergence =
  QCheck.Test.make ~count:60
    ~name:"MAX-SG converges on every random tree (Thm 2.1)"
    QCheck.(pair (int_bound 100_000) (int_range 3 20))
    (fun (seed, n) ->
      let g = Gen.random_tree (Random.State.make [| seed |]) n in
      let r =
        Engine.run
          ~rng:(Random.State.make [| seed + 1 |])
          (Engine.config ~policy:Policy.Random_unhappy (max_sg n))
          g
      in
      Engine.converged r
      && r.Engine.steps <= Theory.thm21_step_bound n
      && Response.is_stable (max_sg n) r.Engine.final)

(* Cor 3.2 on random trees under the max-cost policy.  The SUM-SG stays
   within the paper's parity bound.  The SUM-ASG does not: tree seed 860
   at n = 10 takes 8 steps against a bound of 7, under every tie choice.
   It stays within the odd-n bound at both parities, the envelope
   checked here (EXPERIMENTS.md, Cor 3.2). *)
let max_cost_tree_within bound model seed n =
  let g = Gen.random_tree (Random.State.make [| seed |]) n in
  let r =
    Engine.run
      ~rng:(Random.State.make [| seed + 1 |])
      (Engine.config ~policy:Policy.Max_cost model)
      g
  in
  Engine.converged r && r.Engine.steps <= bound n

let prop_sum_sg_tree_bound =
  QCheck.Test.make ~count:40
    ~name:"SUM-SG trees + max cost within Cor 3.2 parity bound"
    QCheck.(pair (int_bound 100_000) (int_range 4 24))
    (fun (seed, n) ->
      max_cost_tree_within Theory.cor32_parity_bound
        (Model.make Model.Sg Model.Sum n)
        seed n)

let prop_sum_asg_tree_bound =
  QCheck.Test.make ~count:40
    ~name:"SUM-ASG trees + max cost within Cor 3.2 ASG envelope"
    QCheck.(pair (int_bound 100_000) (int_range 4 24))
    (fun (seed, n) ->
      max_cost_tree_within Theory.cor32_asg_envelope (sum_asg n) seed n)

(* ------------------------------------------------------------------ *)
(* Visited states                                                      *)
(* ------------------------------------------------------------------ *)

(* A [Visited] set beside the table of string keys it replaces, stepped
   together over one graph. *)
type visited_pair = {
  g : Graph.t;
  owned : bool;
  visited : Visited.t;
  strings : (string, int) Hashtbl.t;
  mutable steps : int;
}

let string_key owned g =
  if owned then Canonical.key g else Canonical.unowned_key g

let visited_pair ?mix ~owned g =
  let visited = Visited.create ?mix () and strings = Hashtbl.create 64 in
  Visited.start visited ~owned g;
  Hashtbl.replace strings (string_key owned g) 0;
  { g; owned; visited; strings; steps = 0 }

(* Each primitive is noted right after it, as [Move.apply_observed]
   does. *)
let noted p prim =
  Visited.note p.visited p.g prim;
  prim

let remove_edge p a b =
  let o = Graph.owner p.g a b in
  Graph.remove_edge p.g a b;
  noted p (Move.Removed (a, b, o))

let add_edge p ~owner a b =
  Graph.add_edge p.g ~owner a b;
  noted p (Move.Added (a, b))

let toggle_edge p ~owner a b =
  if Graph.has_edge p.g a b then remove_edge p a b else add_edge p ~owner a b

(* Closes a step: the verdicts of the visited set and of the string
   table, [Some first_visit] on a repeat. *)
let close_step p =
  p.steps <- p.steps + 1;
  let key = string_key p.owned p.g in
  let expected = Hashtbl.find_opt p.strings key in
  if expected = None then Hashtbl.replace p.strings key p.steps;
  (Visited.visit p.visited, expected)

let collide _ = 0

let test_visited_ownership_flip () =
  (* a deletes {a,b}, then b buys it back: the same edge set with the
     other owner, a repeat exactly when ownership is not part of the
     state — as one two-primitive step or as two steps. *)
  let verdict = Alcotest.(check (pair (option int) (option int))) in
  List.iter
    (fun (owned, mix) ->
      let repeat = if owned then None else Some 0 in
      let p = visited_pair ?mix ~owned (Graph.of_edges 3 [ (0, 1); (1, 2) ]) in
      ignore (remove_edge p 0 1);
      ignore (add_edge p ~owner:1 1 0);
      verdict "one-step flip" (repeat, repeat) (close_step p);
      let p = visited_pair ?mix ~owned (Graph.of_edges 3 [ (0, 1); (1, 2) ]) in
      ignore (remove_edge p 0 1);
      verdict "deletion" (None, None) (close_step p);
      ignore (add_edge p ~owner:1 1 0);
      verdict "buy-back" (repeat, repeat) (close_step p))
    [ (true, None); (false, None); (true, Some collide); (false, Some collide) ]

(* Random walks of one to three primitives per step on n <= 6 vertices,
   returning often: a third of the steps undo the previous step, and a
   random toggle picks among the first three vertices half the time.
   Walks go on past a repeat, so later verdicts still name the first
   visit. *)
let visited_walk_agrees ?mix ~owned ~steps seed =
  let rng = Random.State.make [| seed; 0x715 |] in
  let n = 2 + Random.State.int rng 5 in
  let p = visited_pair ?mix ~owned (Graph.create n) in
  let random_toggle () =
    let span = if Random.State.bool rng then min n 3 else n in
    let a = Random.State.int rng span in
    let b = (a + 1 + Random.State.int rng (span - 1)) mod span in
    toggle_edge p ~owner:(if Random.State.bool rng then a else b) a b
  in
  let undo = function
    | Move.Added (a, b) -> remove_edge p a b
    | Move.Removed (a, b, o) -> add_edge p ~owner:o a b
  in
  let rec walk last k =
    k = 0
    ||
    let prims =
      if last <> [] && Random.State.int rng 3 = 0 then
        List.map undo (List.rev last)
      else List.init (1 + Random.State.int rng 3) (fun _ -> random_toggle ())
    in
    let got, expected = close_step p in
    got = expected && walk prims (k - 1)
  in
  walk [] steps

let prop_visited_exact =
  QCheck.Test.make ~count:100
    ~name:"visited set: verdicts equal a table of string keys"
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, owned) -> visited_walk_agrees ~owned ~steps:300 seed)

let prop_visited_all_collide =
  QCheck.Test.make ~count:100
    ~name:"visited set: exact when every fingerprint collides"
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, owned) ->
      visited_walk_agrees ~mix:collide ~owned ~steps:80 seed)

(* ------------------------------------------------------------------ *)
(* Potential                                                           *)
(* ------------------------------------------------------------------ *)

let improving_tree_swaps model g =
  List.concat_map
    (fun u ->
      List.map
        (fun e -> e.Response.move)
        (Response.improving_moves model g u))
    (Graph.vertices g)

let prop_lemma26_potential =
  QCheck.Test.make ~count:60
    ~name:"Lemma 2.6: sorted cost vector lex-decreases on MAX-SG tree swaps"
    QCheck.(pair (int_bound 100_000) (int_range 4 14))
    (fun (seed, n) ->
      let g = Gen.random_tree (Random.State.make [| seed |]) n in
      let model = max_sg n in
      List.for_all (Potential.lex_decreases model g)
        (improving_tree_swaps model g))

let prop_sum_sg_social_potential =
  QCheck.Test.make ~count:60
    ~name:"SUM-SG trees: social cost decreases on improving swaps"
    QCheck.(pair (int_bound 100_000) (int_range 4 14))
    (fun (seed, n) ->
      let g = Gen.random_tree (Random.State.make [| seed |]) n in
      let model = Model.make Model.Sg Model.Sum n in
      List.for_all (Potential.social_cost_decreases model g)
        (improving_tree_swaps model g))

let prop_diameter_monotone =
  QCheck.Test.make ~count:60
    ~name:"MAX-SG tree swaps never increase the diameter"
    QCheck.(pair (int_bound 100_000) (int_range 4 14))
    (fun (seed, n) ->
      let g = Gen.random_tree (Random.State.make [| seed |]) n in
      let model = max_sg n in
      List.for_all (Potential.diameter_never_increases model g)
        (improving_tree_swaps model g))

(* ------------------------------------------------------------------ *)
(* Theory                                                              *)
(* ------------------------------------------------------------------ *)

let test_bounds () =
  check_int "cor32 even" 7 (Theory.cor32_parity_bound 10);
  check_int "cor32 odd" 12 (Theory.cor32_parity_bound 11);
  check_int "cor32 tiny" 0 (Theory.cor32_parity_bound 2);
  check_int "cor32 ASG envelope even" 10 (Theory.cor32_asg_envelope 10);
  check_int "cor32 ASG envelope odd" 12 (Theory.cor32_asg_envelope 11);
  check_int "cor32 ASG envelope tiny" 0 (Theory.cor32_asg_envelope 2);
  check "thm21 grows like n^3" true
    (Theory.thm21_step_bound 20 > 6 * Theory.thm21_step_bound 10
     && Theory.thm21_step_bound 20 < 27 * Theory.thm21_step_bound 10);
  check "nlogn" true (abs_float (Theory.nlogn 8 -. 24.0) < 1e-9)

let test_shapes () =
  check "star shape" true (Theory.tree_shape (Gen.star 5) = Theory.Star);
  check "double star" true
    (Theory.tree_shape (Gen.double_star 2 2) = Theory.Double_star);
  check "other tree" true
    (Theory.tree_shape (Gen.path 6) = Theory.Other_tree);
  check "not a tree" true
    (Theory.tree_shape (Gen.cycle 5) = Theory.Not_a_tree);
  check "MAX stable shape: diameter 3 ok" true
    (Theory.stable_tree_shape_ok (max_sg 6) (Gen.double_star 2 2));
  check "MAX stable shape: P6 too long" false
    (Theory.stable_tree_shape_ok (max_sg 6) (Gen.path 6));
  check "SUM needs diameter <= 2" false
    (Theory.stable_tree_shape_ok (Model.make Model.Sg Model.Sum 6)
       (Gen.double_star 2 2))

let prop_tree_lemmas =
  QCheck.Test.make ~count:80
    ~name:"Lemmas 2.2/2.4/2.8 and Obs 2.9 on random trees"
    QCheck.(pair (int_bound 100_000) (int_range 3 16))
    (fun (seed, n) ->
      let g = Gen.random_tree (Random.State.make [| seed |]) n in
      let model = max_sg n in
      Theory.lemma28_holds g
      && Theory.obs29_holds g
      && List.for_all
           (fun m -> Theory.lemma22_holds g m && Theory.lemma24_holds g m)
           (improving_tree_swaps model g))

(* ------------------------------------------------------------------ *)
(* Audit and Chaos                                                     *)
(* ------------------------------------------------------------------ *)

(* One sample network per kind of game: an ownership game with budgets,
   a MAX ownership game with alpha, and an ownership-free tree. *)
let audit_samples () =
  [ ("SUM-ASG budget network", sum_asg 9,
     Gen.random_budget_network (Random.State.make [| 7 |]) 9 2);
    ("MAX-GBG random network",
     Model.make ~alpha:(Ncg_rational.Q.make 9 4) Model.Gbg Model.Max 9,
     Gen.random_m_edges (Random.State.make [| 8 |]) 9 12);
    ("MAX-SG tree", max_sg 9, Gen.random_tree (Random.State.make [| 9 |]) 9) ]

let test_audit_clean () =
  let owned = sum_asg 8 in
  let g = Gen.random_budget_network (Random.State.make [| 5 |]) 8 2 in
  check "clean owned graph has no violations" true
    (Audit.check_graph owned g = []);
  check "clean graph passes with connectivity required" true
    (Audit.check_graph ~require_connected:true owned (Gen.star 8) = []);
  let unowned = max_sg 6 in
  check "clean unowned graph has no violations" true
    (Audit.check_graph unowned (Gen.path 6) = []);
  List.iter
    (fun (desc, model, g) ->
      check (desc ^ " audits clean") true (Audit.check_graph model g = []))
    (audit_samples ())

let test_audit_detects_all_faults () =
  List.iter
    (fun (desc, model, g) ->
      List.iter
        (fun fault ->
          (* ownership faults are only observable in ownership games *)
          let applicable =
            match fault with
            | Chaos.Orphan_ownership | Chaos.Double_ownership ->
                Model.uses_ownership model
            | Chaos.Drop_half_edge | Chaos.Inject_self_loop
            | Chaos.Disconnect_vertex ->
                true
          in
          if applicable then
            check
              (Printf.sprintf "fault %s detected on %s" (Chaos.label fault)
                 desc)
              true
              (Chaos.detected model fault g))
        Chaos.all;
      check
        ("non-improving move flagged on " ^ desc)
        true
        (match Chaos.non_improving_move_detected model g with
        | ok -> ok
        | exception Invalid_argument _ ->
            (* a stable sample has no improving move to pervert *)
            Chaos.non_improving_move_detected model (Gen.path (Model.n model))))
    (audit_samples ());
  check "non-improving move flagged" true
    (Chaos.non_improving_move_detected (sum_asg 9) (Gen.path 9))

let test_audit_ownership_gated () =
  (* An ownerless edge is a fault only in games that use ownership. *)
  let g = Gen.path 4 in
  Graph.Unsafe.set_owner_bit g 0 1 false;
  Graph.Unsafe.set_owner_bit g 1 0 false;
  check "ownerless flagged under ASG" true
    (List.exists
       (fun v -> v.Audit.kind = Audit.Ownerless_edge)
       (Audit.check_graph (sum_asg 4) g));
  check "ignored in the ownership-free SG" true
    (Audit.check_graph (max_sg 4) g = [])

let test_audit_kind_labels_roundtrip () =
  List.iter
    (fun fault ->
      let kind = Chaos.expected_kind fault in
      check "label roundtrip" true
        (Audit.kind_of_label (Audit.kind_label kind) = Some kind))
    Chaos.all

let test_engine_audit_no_false_positives () =
  let model = sum_asg 10 in
  let g = Gen.random_budget_network (Random.State.make [| 13 |]) 10 2 in
  let run audit =
    Engine.run
      ~rng:(Random.State.make [| 21 |])
      (Engine.config ~audit model) g
  in
  let plain = run Audit.Off and audited = run Audit.Every_step in
  check "audited run still converges" true (Engine.converged audited);
  check_int "audit does not change the trajectory" plain.Engine.steps
    audited.Engine.steps;
  let sampled = run (Audit.Sampled 3) in
  check "sampled audit converges too" true (Engine.converged sampled);
  check "fully audited MAX-SG run from the 9-path converges" true
    (Engine.converged
       (Engine.run
          (Engine.config ~audit:Audit.Every_step (max_sg 9))
          (Gen.path 9)))

let test_engine_happy_agent_violation () =
  (* On P5 under MAX-SG the middle agent 2 is happy (cf. the adversarial
     policy test above).  A buggy scheduler that selects it anyway used to
     crash the engine with [assert false]; now it is a typed outcome. *)
  let model = max_sg 5 in
  let lying_policy = Policy.Adversarial (fun _ _ -> Some 2) in
  let r = Engine.run (Engine.config ~policy:lying_policy model) (Gen.path 5)
  in
  match r.Engine.reason with
  | Engine.Invariant_violation v ->
      check "flags the happy mover" true
        (v.Audit.kind = Audit.Happy_agent_selected && v.Audit.subject = Some 2)
  | _ -> Alcotest.fail "expected Invariant_violation"

let test_engine_time_budget () =
  let model = max_sg 15 in
  let cfg = Engine.config ~time_budget:(-1.0) model in
  let r = Engine.run cfg (Gen.path 15) in
  check "expired budget stops immediately" true
    (r.Engine.reason = Engine.Time_limit);
  check_int "no steps taken" 0 r.Engine.steps;
  let generous = Engine.config ~time_budget:3600.0 model in
  check "generous budget converges" true
    (Engine.converged (Engine.run generous (Gen.path 15)))

(* ------------------------------------------------------------------ *)
(* Stats and Trajectory                                                *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let model = max_sg 7 in
  let results =
    [ Engine.run (Engine.config model) (Gen.path 7);
      Engine.run (Engine.config model) (Gen.star 7) ]
  in
  let s = Stats.summarize results in
  check_int "runs" 2 s.Stats.runs;
  check_int "converged" 2 s.Stats.converged;
  check_int "cycles" 0 s.Stats.cycles;
  check_int "min is star's zero" 0 s.Stats.min_steps;
  check "avg between min and max" true
    (s.Stats.avg_steps >= 0.0
    && s.Stats.avg_steps <= float_of_int s.Stats.max_steps);
  let empty = Stats.summarize [] in
  check "empty avg is nan" true (Float.is_nan empty.Stats.avg_steps)

let test_trajectory () =
  let model =
    Model.make ~alpha:(Ncg_rational.Q.of_int 5) Model.Gbg Model.Sum 14
  in
  let g = Gen.random_m_edges (Random.State.make [| 9 |]) 14 30 in
  let r =
    Engine.run (Engine.config ~tie_break:Engine.Prefer_deletion model) g
  in
  let ops = Trajectory.count_ops r.Engine.history in
  check_int "op counts partition the history" r.Engine.steps
    (Trajectory.total ops);
  let phases = Trajectory.phases 3 r.Engine.history in
  check_int "three phases" 3 (Array.length phases);
  check_int "phases partition too" r.Engine.steps
    (Array.fold_left (fun acc c -> acc + Trajectory.total c) 0 phases);
  check_int "movers recorded" r.Engine.steps
    (List.length (Trajectory.movers r.Engine.history));
  check "dominant of empty" true
    (Trajectory.dominant (Trajectory.count_ops []) = None)

let test_efficiency () =
  let open Ncg_rational in
  (* SUM-BG on 4 agents, alpha = 3 (>= 2): the star is optimal. *)
  let model = Model.make ~alpha:(Q.of_int 3) Model.Bg Model.Sum 4 in
  check "star social cost = 3*3 + (3 + 3*5)" true
    (Q.equal (Efficiency.star_social_cost model) (Q.of_int (9 + 18)));
  check "clique = 6*3 + 12" true
    (Q.equal (Efficiency.clique_social_cost model) (Q.of_int 30));
  check "optimum = star" true
    (Q.equal (Efficiency.optimum_social_cost model) (Q.of_int 27));
  (* alpha = 1 (< 2): the clique wins *)
  let cheap = Model.make ~alpha:Q.one Model.Bg Model.Sum 4 in
  check "cheap optimum = clique" true
    (Q.equal (Efficiency.optimum_social_cost cheap)
       (Efficiency.clique_social_cost cheap));
  (* the star network achieves ratio 1 *)
  check "star ratio 1" true
    (Efficiency.efficiency_ratio model (Gen.star 4) = Some 1.0);
  check "disconnected has no ratio" true
    (Efficiency.efficiency_ratio model (Graph.create 4) = None);
  (* empirical PoA of the SUM-GBG is small *)
  let gbg = Model.make ~alpha:(Q.of_int 3) Model.Gbg Model.Sum 10 in
  let worst =
    Efficiency.worst_stable_ratio ~trials:5 gbg (fun rng ->
        Gen.random_m_edges rng 10 15)
  in
  check "stable networks nearly optimal" true (worst >= 1.0 && worst < 3.0)

let suite =
  ( "core",
    [
      Alcotest.test_case "max cost policy" `Quick test_policy_max_cost;
      Alcotest.test_case "policies on stable nets" `Quick
        test_policy_converged;
      Alcotest.test_case "adversarial policy" `Quick test_policy_adversarial;
      Alcotest.test_case "round-robin contract" `Quick
        test_policy_round_robin_contract;
      Alcotest.test_case "only unhappy agents selected" `Quick
        test_policy_only_unhappy_selected;
      Alcotest.test_case "adversarial contract" `Quick
        test_policy_adversarial_contract;
      Alcotest.test_case "engine converges on trees" `Quick
        test_engine_converges_tree;
      Alcotest.test_case "engine deterministic" `Quick
        test_engine_deterministic;
      Alcotest.test_case "engine history" `Quick test_engine_history;
      Alcotest.test_case "engine step limit" `Quick test_engine_step_limit;
      Alcotest.test_case "engine cycle detection" `Quick
        test_engine_cycle_detection;
      Alcotest.test_case "visited set: the ownership flip" `Quick
        test_visited_ownership_flip;
      Alcotest.test_case "stable input" `Quick test_engine_already_stable;
      Alcotest.test_case "any-improving rule" `Quick
        test_engine_any_improving;
      Alcotest.test_case "round robin" `Quick test_engine_round_robin;
      Alcotest.test_case "deletion preference" `Quick
        test_engine_prefer_deletion;
      Alcotest.test_case "audit clean graphs" `Quick test_audit_clean;
      Alcotest.test_case "audit detects every fault class" `Quick
        test_audit_detects_all_faults;
      Alcotest.test_case "audit ownership gating" `Quick
        test_audit_ownership_gated;
      Alcotest.test_case "audit kind labels" `Quick
        test_audit_kind_labels_roundtrip;
      Alcotest.test_case "audited engine runs clean" `Quick
        test_engine_audit_no_false_positives;
      Alcotest.test_case "happy-mover violation" `Quick
        test_engine_happy_agent_violation;
      Alcotest.test_case "engine time budget" `Quick test_engine_time_budget;
      Alcotest.test_case "bound formulas" `Quick test_bounds;
      Alcotest.test_case "tree shapes" `Quick test_shapes;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "efficiency" `Quick test_efficiency;
      Alcotest.test_case "trajectory" `Quick test_trajectory;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_engine_tree_convergence;
          prop_sum_asg_tree_bound;
          prop_sum_sg_tree_bound;
          prop_visited_exact;
          prop_visited_all_collide;
          prop_lemma26_potential;
          prop_sum_sg_social_potential;
          prop_diameter_monotone;
          prop_tree_lemmas;
        ]
    @ [
        Alcotest.test_case "replica-only settings raise off their values"
          `Quick test_replica_settings_fixed;
      ] )
