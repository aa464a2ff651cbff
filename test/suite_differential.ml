(* Differential oracle suite: the fast engine (witness cache, cross-step
   distance cache, cost board, bounded BFS) against the preserved naive
   engine ([Reference.run]).  Both are run on the same seeds and must
   produce byte-identical trajectories — same moves in the same order
   with the same recorded costs, same stop reason, same final network.
   Every game type, both distance modes, the three standard policies,
   both move rules, the paper tie-breaks, cycle detection and cache
   budgets are exercised; well over 200 seeded runs total. *)
open Ncg_graph
open Ncg_game
open Ncg_core

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

(* Byte-identical trajectories: counts, histories, stop reasons, final
   networks (including edge ownership). *)
let identical (fast : Engine.result) (naive : Engine.result) =
  fast.Engine.steps = naive.Engine.steps
  && fast.Engine.reason = naive.Engine.reason
  && List.length fast.Engine.history = List.length naive.Engine.history
  && List.for_all2 same_step fast.Engine.history naive.Engine.history
  && Graph.equal fast.Engine.final naive.Engine.final
  && Canonical.key fast.Engine.final = Canonical.key naive.Engine.final

let assert_identical label cfg initial seed =
  let rng () = Random.State.make [| seed; 0xd1ff |] in
  let fast = Engine.run ~rng:(rng ()) cfg initial
  and naive = Reference.run ~rng:(rng ()) cfg initial in
  if not (identical fast naive) then
    Alcotest.failf "%s seed=%d diverged: fast %d steps (%s), naive %d steps (%s)"
      label seed fast.Engine.steps
      (reason_label fast.Engine.reason)
      naive.Engine.steps
      (reason_label naive.Engine.reason)

(* ------------------------------------------------------------------ *)
(* The matrix: 5 games x {SUM, MAX} x 3 policies x seeds               *)
(* ------------------------------------------------------------------ *)

let policies =
  [ ("max-cost", Policy.Max_cost);
    ("random-unhappy", Policy.Random_unhappy);
    ("round-robin", Policy.Round_robin) ]

(* Initial networks follow each game's paper process; the exponential
   games stay tiny to respect [Response.exhaustive_limit]. *)
let instance game rng =
  match game with
  | Model.Sg -> (10, Gen.random_connected rng 10 0.2)
  | Model.Asg -> (10, Gen.random_budget_network rng 10 2)
  | Model.Gbg -> (10, Gen.random_m_edges rng 10 14)
  | Model.Bg -> (5, Gen.random_connected rng 5 0.3)
  | Model.Bilateral -> (5, Gen.random_connected rng 5 0.3)

let matrix_case game () =
  let runs = ref 0 in
  List.iter
    (fun dist_mode ->
      List.iter
        (fun (pname, policy) ->
          for seed = 1 to 7 do
            let rng = Random.State.make [| seed; Hashtbl.hash game |] in
            let n, g = instance game rng in
            let model =
              Model.make ~alpha:(Ncg_rational.Q.of_int 3) game dist_mode n
            in
            let cfg =
              Engine.config ~policy ~max_steps:400 ~detect_cycles:true model
            in
            assert_identical
              (Printf.sprintf "%s/%s" (Model.game_name model) pname)
              cfg g seed;
            incr runs
          done)
        policies)
    [ Model.Sum; Model.Max ];
  check_int "runs per game in the matrix" 42 !runs

(* ------------------------------------------------------------------ *)
(* Off-matrix configurations                                           *)
(* ------------------------------------------------------------------ *)

let test_tie_breaks () =
  (* Prefer_deletion and First_candidate change which best move is
     played; the two engines must still agree move for move. *)
  List.iter
    (fun tie_break ->
      for seed = 1 to 5 do
        let rng = Random.State.make [| seed; 0x7b |] in
        let g = Gen.random_m_edges rng 12 20 in
        let model =
          Model.make ~alpha:(Ncg_rational.Q.of_int 3) Model.Gbg Model.Sum 12
        in
        let cfg = Engine.config ~tie_break ~max_steps:400 model in
        assert_identical "gbg tie-break" cfg g seed
      done)
    [ Engine.Uniform; Engine.Prefer_deletion; Engine.First_candidate ]

let test_any_improving () =
  (* Better-response dynamics: the uniformly-random improving move is
     drawn from the full [improving_moves] list, so list order and length
     both matter for RNG lockstep. *)
  for seed = 1 to 6 do
    let rng = Random.State.make [| seed; 0xa1 |] in
    let g = Gen.random_tree rng 9 in
    let model = Model.make Model.Sg Model.Sum 9 in
    let cfg =
      Engine.config ~policy:Policy.Random_unhappy
        ~move_rule:Engine.Any_improving model
    in
    assert_identical "any-improving" cfg g seed
  done

let test_adversarial () =
  (* The adversary sees the same sorted unhappy set on both paths. *)
  for seed = 1 to 5 do
    let rng = Random.State.make [| seed; 0xad |] in
    let g = Gen.random_budget_network rng 9 2 in
    let pick g unhappy =
      (* deterministic but state-dependent choice *)
      Some (List.nth unhappy (Graph.m g mod List.length unhappy))
    in
    let model = Model.make Model.Asg Model.Sum 9 in
    let cfg =
      Engine.config ~policy:(Policy.Adversarial pick) ~max_steps:300 model
    in
    assert_identical "adversarial" cfg g seed
  done

(* Gadgets that cycle under every standard policy (with their periods),
   keyed both ways: Fig. 2 by the unowned key, Fig. 3 and its host
   version by the owned key, and Fig. 15 through multi-primitive
   [Set_neighbors] moves.  The fast engine must report the reference's
   cycle: solo, and on one arena reused across the policies. *)
let test_cycle_parity () =
  List.iter
    (fun (name, period) ->
      let inst = Option.get (Ncg_instances.Catalog.find name) in
      let initial = inst.Ncg_instances.Instance.initial in
      let arena = Engine.Arena.create (Graph.n initial) in
      List.iter
        (fun (pname, policy) ->
          let cfg =
            Engine.config ~policy ~detect_cycles:true
              inst.Ncg_instances.Instance.model
          in
          let rng () = Random.State.make [| 1 |] in
          let naive = Reference.run ~rng:(rng ()) cfg initial in
          let label = Printf.sprintf "%s %s" name pname in
          check (label ^ " cycles") true
            (match naive.Engine.reason with
            | Engine.Cycle_detected c -> c.period = period
            | _ -> false);
          List.iter
            (fun (how, fast) ->
              if not (identical fast naive) then
                Alcotest.failf "%s %s: fast %d steps (%s), naive %d steps (%s)"
                  label how fast.Engine.steps
                  (reason_label fast.Engine.reason)
                  naive.Engine.steps
                  (reason_label naive.Engine.reason))
            [ ("solo", Engine.run ~rng:(rng ()) cfg initial);
              ("arena", Engine.run ~arena ~rng:(rng ()) cfg initial) ])
        policies)
    [ ("fig2-max-sg", 3); ("fig3-sum-asg", 4); ("cor36-sum-asg-host", 4);
      ("fig15-sum-bilateral", 6) ]

let test_audited_parity () =
  for seed = 1 to 4 do
    let rng = Random.State.make [| seed; 0xab |] in
    let g = Gen.random_budget_network rng 10 2 in
    let model = Model.make Model.Asg Model.Sum 10 in
    let cfg = Engine.config ~audit:Audit.Every_step model in
    assert_identical "audited" cfg g seed
  done

let test_incremental_column () =
  (* The cross-step cache changes *when* distances are computed, never
     their values: the cached engine's trajectory must be byte-identical
     to the reference's — and the run must actually exercise the cache
     (keeps/repairs). *)
  let exercised = ref 0 in
  List.iter
    (fun (game, dist_mode, mk) ->
      for seed = 1 to 5 do
        let rng = Random.State.make [| seed; 0x1ac |] in
        let n, g = mk rng in
        let model =
          Model.make ~alpha:(Ncg_rational.Q.of_int 3) game dist_mode n
        in
        let cfg = Engine.config ~max_steps:400 model in
        let rng () = Random.State.make [| seed; 0xd1ff |] in
        let inc = Engine.run ~rng:(rng ()) cfg g
        and naive = Reference.run ~rng:(rng ()) cfg g in
        check "incremental = reference" true (identical inc naive);
        exercised :=
          !exercised + inc.Engine.cache.Distcache.kept
          + inc.Engine.cache.Distcache.repaired
      done)
    [
      (Model.Gbg, Model.Sum, fun rng -> (12, Gen.random_m_edges rng 12 20));
      (Model.Gbg, Model.Max, fun rng -> (12, Gen.random_m_edges rng 12 20));
      (Model.Sg, Model.Sum, fun rng -> (10, Gen.random_connected rng 10 0.2));
      (Model.Asg, Model.Sum, fun rng -> (10, Gen.random_budget_network rng 10 2));
    ];
  check "incremental runs kept or repaired tables across steps" true
    (!exercised > 0)

(* ------------------------------------------------------------------ *)
(* Building-block parity: Fast vs naive Response, witness probes       *)
(* ------------------------------------------------------------------ *)

let arb_state =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 100_000) (int_range 3 12))

let games_under_test =
  (* the polynomial games, where every vertex can be scanned quickly *)
  [ (Model.Sg, Model.Max); (Model.Sg, Model.Sum);
    (Model.Asg, Model.Sum); (Model.Gbg, Model.Sum); (Model.Gbg, Model.Max) ]

let prop_fast_response_parity =
  QCheck.Test.make ~count:60
    ~name:"Fast best_moves/improving_moves/is_unhappy = naive on random nets"
    arb_state
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng n 0.25 in
      let ws = Paths.Workspace.create n in
      List.for_all
        (fun (game, dist_mode) ->
          let model =
            Model.make ~alpha:(Ncg_rational.Q.of_int 2) game dist_mode n
          in
          let ctx = Response.Fast.of_cache ws model g (Distcache.create n) in
          List.for_all
            (fun u ->
              Response.Fast.is_unhappy ctx u = Response.is_unhappy model g u
              && Response.Fast.improving_moves ctx u
                 = Response.improving_moves model g u
              && Response.Fast.best_moves ctx u = Response.best_moves model g u)
            (Graph.vertices g))
        games_under_test)

let prop_witness_probe_parity =
  QCheck.Test.make ~count:60
    ~name:"witness probes match naive is_unhappy across a whole run"
    arb_state
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let m = min (n + 2) (n * (n - 1) / 2) in
      let g = Graph.copy (Gen.random_m_edges rng n m) in
      let model =
        Model.make ~alpha:(Ncg_rational.Q.of_int 2) Model.Gbg Model.Sum n
      in
      let ws = Paths.Workspace.create n in
      let witness = Witness.create n in
      (* walk the dynamics by hand, probing everyone at every state *)
      let ok = ref true in
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 40 do
        let ctx = Response.Fast.of_cache ws model g (Distcache.create n) in
        List.iter
          (fun u ->
            if Witness.probe witness ctx u <> Response.is_unhappy model g u
            then ok := false)
          (Graph.vertices g);
        match
          List.find_map
            (fun u -> Response.Fast.find_improving ctx u)
            (Graph.vertices g)
        with
        | Some e ->
            ignore (Move.apply g e.Response.move);
            Witness.clear witness (Move.agent e.Response.move);
            incr steps
        | None -> continue := false
      done;
      !ok)

let test_witness_hits () =
  (* A stable witness must keep answering probes without a rescan. *)
  let n = 8 in
  let model = Model.make Model.Sg Model.Max n in
  let g = Gen.path n in
  let ws = Paths.Workspace.create n in
  let witness = Witness.create n in
  let probe () =
    let ctx = Response.Fast.of_cache ws model g (Distcache.create n) in
    check "path end stays unhappy" true (Witness.probe witness ctx 0)
  in
  probe ();
  check_int "first probe scans" 1 (Witness.scans witness);
  check_int "no hit yet" 0 (Witness.hits witness);
  probe ();
  probe ();
  check_int "later probes hit the witness" 2 (Witness.hits witness);
  check_int "no further scans" 1 (Witness.scans witness);
  check "witness is cached for the agent" true
    (match Witness.get witness 0 with
    | Some m -> Move.agent m = 0
    | None -> false);
  Witness.clear witness 0;
  probe ();
  check_int "cleared witness forces a rescan" 2 (Witness.scans witness)

(* The adversary probes every unhappy agent each step, so remembered
   witness moves are re-verified against a cache that the scan no longer
   fills with target rows, and under a budget of 2 or 3 tables rows are
   evicted and refilled between probes.  On these seeds, Buy verdicts
   trusted on the strength of table version counters diverged from the
   reference. *)
let test_adversarial_budget () =
  let middle _ unhappy = Some (List.nth unhappy (List.length unhappy / 2)) in
  List.iter
    (fun seed ->
      let rng0 = Random.State.make [| seed |] in
      let n = 8 + Random.State.int rng0 10 in
      let m = n + Random.State.int rng0 n in
      let g = Gen.random_m_edges (Random.State.make [| seed; 1 |]) n m in
      let alpha = Ncg_rational.Q.make (1 + Random.State.int rng0 4) 2 in
      let model = Model.make ~alpha Model.Gbg Model.Sum n in
      List.iter
        (fun cache_budget ->
          let cfg =
            Engine.config ~policy:(Policy.Adversarial middle) ~max_steps:60
              ?cache_budget model
          in
          let rng () = Random.State.make [| seed; 2 |] in
          let fast = Engine.run ~rng:(rng ()) cfg g
          and naive = Reference.run ~rng:(rng ()) cfg g in
          let moves r = List.map (fun s -> s.Engine.move) r.Engine.history in
          if
            not
              (fast.Engine.steps = naive.Engine.steps
              && fast.Engine.reason = naive.Engine.reason
              && moves fast = moves naive)
          then
            Alcotest.failf
              "seed=%d budget=%s diverged: fast %d steps (%s), naive %d \
               steps (%s)"
              seed
              (match cache_budget with
              | None -> "none"
              | Some b -> string_of_int b)
              fast.Engine.steps
              (reason_label fast.Engine.reason)
              naive.Engine.steps
              (reason_label naive.Engine.reason))
        [ None; Some 2; Some 3 ])
    [ 244; 438; 842; 990; 1074; 1150; 1154; 1534; 1666 ]

(* Larger-n trajectories than the matrix reaches, pinned to digests of
   their move lists: the fast path's buy, swap and delete scores are
   exact, so any change to them that alters a single move shows here —
   with and without a memory-bounded cache. *)
let test_n300_digests () =
  let n = 300 in
  let g = Gen.random_m_edges (Random.State.make [| 2013; 300 |]) n 1200 in
  let t = Gen.random_budget_network (Random.State.make [| 2013; 300; 2 |]) n 2 in
  let q = Ncg_rational.Q.make in
  let rows =
    [
      ( "SUM-GBG alpha=n/4",
        Model.make ~alpha:(q n 4) Model.Gbg Model.Sum n,
        g,
        (56, 4, 0),
        "e5e47bcf8c87fe9f0d945313bc76326c" );
      ( "SUM-GBG alpha=2",
        Model.make ~alpha:(q 2 1) Model.Gbg Model.Sum n,
        g,
        (0, 2, 58),
        "0b9e19cf267fdc26333c36dd73a3b7aa" );
      ( "MAX-GBG alpha=2",
        Model.make ~alpha:(q 2 1) Model.Gbg Model.Max n,
        g,
        (60, 0, 0),
        "3c0b7e4cd6fa094716f202ae4388b4d8" );
      ( "SUM-ASG",
        Model.make Model.Asg Model.Sum n,
        t,
        (0, 60, 0),
        "9874e5c3d1524966e9b84f7903e5af31" );
      ( "MAX-ASG",
        Model.make Model.Asg Model.Max n,
        t,
        (0, 60, 0),
        "25e5cd737b4c2c1ba90be592e94306c2" );
    ]
  in
  List.iter
    (fun (label, model, start, (dels, swaps, buys), digest) ->
      List.iter
        (fun cache_budget ->
          let cfg =
            Engine.config ~policy:Policy.Max_cost
              ~tie_break:Engine.Prefer_deletion ~max_steps:60 ?cache_budget
              model
          in
          let r = Engine.run ~rng:(Random.State.make [| 2013; 0xfa57 |]) cfg start in
          let moves = List.map (fun s -> s.Engine.move) r.Engine.history in
          let count p = List.length (List.filter p moves) in
          let label =
            Printf.sprintf "%s, budget %s" label
              (match cache_budget with
              | None -> "none"
              | Some b -> string_of_int b)
          in
          Alcotest.(check (triple int int int))
            (label ^ ": deletions/swaps/buys")
            (dels, swaps, buys)
            ( count (function Move.Delete _ -> true | _ -> false),
              count (function Move.Swap _ -> true | _ -> false),
              count (function Move.Buy _ -> true | _ -> false) );
          Alcotest.(check string)
            (label ^ ": move-list digest")
            digest
            (Digest.to_hex
               (Digest.string
                  (String.concat ";" (List.map Move.to_string moves)))))
        [ None; Some 8 ])
    rows

let suite =
  ( "differential",
    [
      Alcotest.test_case "matrix: SG" `Quick (matrix_case Model.Sg);
      Alcotest.test_case "matrix: ASG" `Quick (matrix_case Model.Asg);
      Alcotest.test_case "matrix: GBG" `Quick (matrix_case Model.Gbg);
      Alcotest.test_case "matrix: BG" `Quick (matrix_case Model.Bg);
      Alcotest.test_case "matrix: bilateral" `Quick
        (matrix_case Model.Bilateral);
      Alcotest.test_case "tie-breaks" `Quick test_tie_breaks;
      Alcotest.test_case "any-improving rule" `Quick test_any_improving;
      Alcotest.test_case "adversarial scheduler" `Quick test_adversarial;
      Alcotest.test_case "cycle-detection parity" `Quick test_cycle_parity;
      Alcotest.test_case "audited-run parity" `Quick test_audited_parity;
      Alcotest.test_case "incremental-cache parity" `Quick
        test_incremental_column;
      Alcotest.test_case "witness hit accounting" `Quick test_witness_hits;
      Alcotest.test_case "adversarial scheduler under a cache budget" `Quick
        test_adversarial_budget;
      Alcotest.test_case "n = 300 trajectories match the parent's digests"
        `Quick test_n300_digests;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_fast_response_parity; prop_witness_probe_parity ] )
