(* Incremental distance cache suite: the cross-step [Distcache] must hold
   tables byte-identical to a fresh BFS after every single-edge patch, for
   every keep / repair / rebuild decision it can take.  The decision rules
   themselves are pinned by unit tests (stats deltas on hand-built graphs,
   both delta directions), and a QCheck property drives long random
   add/remove sequences — the primitive decomposition of every buy, delete
   and swap — re-checking all n tables after each patch.  Two more pin the
   dirty set the cost board is refreshed from: after one primitive it is
   exactly the set of sources whose BFS row changed, and after a swap it
   covers them. *)
open Ncg_graph
open Ncg_game

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fill_all cache g =
  let ws = Paths.Workspace.create (Graph.n g) in
  for v = 0 to Graph.n g - 1 do
    ignore (Distcache.ensure cache ~ws g v)
  done

let tables_exact cache g =
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    match Distcache.get cache v with
    | None -> ok := false
    | Some d -> if Intvec.to_array d <> Paths.distances g v then ok := false
  done;
  !ok

let add cache g a b =
  Graph.add_edge g ~owner:a a b;
  Distcache.note_added cache g a b

let remove cache g a b =
  Graph.remove_edge g a b;
  Distcache.note_removed cache g a b

(* Stats delta of one patch, for asserting which rule fired. *)
let delta cache f =
  let before = Distcache.stats cache in
  f ();
  let after = Distcache.stats cache in
  Distcache.
    {
      kept = after.kept - before.kept;
      repaired = after.repaired - before.repaired;
      rebuilt = after.rebuilt - before.rebuilt;
      fills = after.fills - before.fills;
      evicted = after.evicted - before.evicted;
    }

(* ------------------------------------------------------------------ *)
(* Unit tests: each decision rule, both delta directions               *)
(* ------------------------------------------------------------------ *)

let test_insert_keep () =
  (* A 4-cycle plus chord candidates: adding {0,2} to 0-1-2-3-0 links two
     vertices at distance 2 — every source with |d(0) - d(2)| <= 1 keeps
     its table, the others repair.  From sources 1 and 3 the endpoints are
     equidistant (d = 1 each), so those two tables are provably kept. *)
  let g = Gen.cycle 4 in
  let cache = Distcache.create 4 in
  fill_all cache g;
  let d = delta cache (fun () -> add cache g 0 2) in
  check "tables exact after insert" true (tables_exact cache g);
  check_int "equidistant sources kept" 2 d.Distcache.kept;
  check_int "shortcut sources repaired" 2 d.Distcache.repaired;
  check_int "no rebuild on insert" 0 d.Distcache.rebuilt

let test_insert_repair_decreases () =
  (* A long path with a shortcut across it: distances from the far end
     drop by many levels at once, so the decrease-only BFS must cascade
     past the immediate endpoint. *)
  let n = 12 in
  let g = Gen.path n in
  let cache = Distcache.create n in
  fill_all cache g;
  let d = delta cache (fun () -> add cache g 0 (n - 1)) in
  check "tables exact after long shortcut" true (tables_exact cache g);
  check "shortcut repaired some tables" true (d.Distcache.repaired > 0);
  check_int "no rebuild on insert" 0 d.Distcache.rebuilt;
  (* the distance from 0 to the far end is now 1, and midpoints halve *)
  match Distcache.get cache 0 with
  | None -> Alcotest.fail "table evicted"
  | Some t -> check_int "far end now adjacent" 1 (Intvec.get t (n - 1))

let test_insert_unreachable_keep () =
  (* Adding an edge inside a component unreachable from the source can
     never change the source's table: both endpoints at -1 are kept. *)
  let g = Graph.create 6 in
  Graph.add_edge g ~owner:0 0 1;
  Graph.add_edge g ~owner:2 2 3;
  Graph.add_edge g ~owner:3 3 4;
  let cache = Distcache.create 6 in
  fill_all cache g;
  let d = delta cache (fun () -> add cache g 2 4) in
  check "tables exact" true (tables_exact cache g);
  (* sources 0, 1 and 5 see both endpoints at -1 — provably kept; source 3
     sees them equidistant — kept; sources 2 and 4 gain a shortcut
     (distance drops from 2 to 1) — repaired *)
  check_int "unreachable and equidistant sources kept" 4 d.Distcache.kept;
  check_int "only the endpoints repair" 2 d.Distcache.repaired

let test_delete_keep_equidistant () =
  (* An even cycle: the edge across from the source lies on no shortest
     path from it (both endpoints equidistant), so that table is kept. *)
  let g = Gen.cycle 6 in
  let cache = Distcache.create 6 in
  fill_all cache g;
  let d = delta cache (fun () -> remove cache g 3 4) in
  check "tables exact after delete" true (tables_exact cache g);
  (* from source 0: d(3) = 3, d(4) = 2 -> not equidistant; but from the
     two vertices opposite the removed edge the endpoints tie *)
  check "some tables kept" true (d.Distcache.kept > 0);
  check "others repaired or rebuilt" true
    (d.Distcache.repaired + d.Distcache.rebuilt > 0)

let test_delete_fast_keep_alternate_parent () =
  (* Diamond 0-{1,2}-3 plus a tail 3-4: removing {1,3}.  From sources 0
     and 2 the far endpoint reroutes through an alternate parent at the
     same level (0: 3 keeps neighbor 2 at level 1; 2: 1 keeps neighbor 0
     at level 1), so those two tables are proved unchanged without any
     BFS.  From 1, 3 and 4 distances genuinely grow — repaired. *)
  let g = Graph.create 5 in
  Graph.add_edge g ~owner:0 0 1;
  Graph.add_edge g ~owner:0 0 2;
  Graph.add_edge g ~owner:1 1 3;
  Graph.add_edge g ~owner:2 2 3;
  Graph.add_edge g ~owner:3 3 4;
  let cache = Distcache.create 5 in
  fill_all cache g;
  let d = delta cache (fun () -> remove cache g 1 3) in
  check "tables exact" true (tables_exact cache g);
  check_int "alternate-parent sources kept" 2 d.Distcache.kept;
  check_int "stretched sources repaired" 3 d.Distcache.repaired;
  check_int "no rebuild" 0 d.Distcache.rebuilt

let test_delete_repair_increases () =
  (* A cycle with one chord: removing the chord pushes a small affected
     region farther away — repairable without a full scan. *)
  let g = Gen.cycle 8 in
  Graph.add_edge g ~owner:0 0 4;
  let cache = Distcache.create 8 in
  fill_all cache g;
  let d = delta cache (fun () -> remove cache g 0 4) in
  check "tables exact after chord removal" true (tables_exact cache g);
  check "chord removal repaired some tables" true (d.Distcache.repaired > 0);
  check_int "affected sets stay under threshold" 0 d.Distcache.rebuilt

let test_delete_disconnects () =
  (* Removing a bridge sends the far side to -1 in every near-side table
     (and vice versa) — the repair must produce the fresh-BFS sentinel,
     not stale finite distances. *)
  let g = Gen.path 6 in
  let cache = Distcache.create 6 in
  fill_all cache g;
  remove cache g 2 3;
  check "tables exact after disconnect" true (tables_exact cache g);
  match Distcache.get cache 0 with
  | None -> Alcotest.fail "table evicted"
  | Some t ->
      check_int "far side unreachable" (-1) (Intvec.get t 5);
      check_int "near side intact" 2 (Intvec.get t 2)

let test_delete_rebuild_fallback () =
  (* threshold 0: every non-kept deletion overflows the affected-set bound
     and must fall back to a full rebuild — with identical tables. *)
  let n = 8 in
  let g = Gen.cycle n in
  Graph.add_edge g ~owner:0 0 4;
  let cache = Distcache.create ~threshold:0 n in
  fill_all cache g;
  let d = delta cache (fun () -> remove cache g 0 4) in
  check "tables exact under forced fallback" true (tables_exact cache g);
  check_int "no incremental repair at threshold 0" 0 d.Distcache.repaired;
  check "fallback rebuilt the changed tables" true (d.Distcache.rebuilt > 0)

let test_lazy_tables_stay_lazy () =
  (* Sources never filled must stay absent: patching is per cached table,
     not an excuse to materialize the rest. *)
  let g = Gen.path 5 in
  let cache = Distcache.create 5 in
  ignore (Distcache.ensure cache ~ws:(Paths.Workspace.create 5) g 0);
  add cache g 0 4;
  check "filled table exact" true
    (match Distcache.get cache 0 with
    | Some d -> Intvec.to_array d = Paths.distances g 0
    | None -> false);
  check "unfilled tables untouched" true (Distcache.get cache 3 = None)

(* The dirty set as a sorted list, and the sources whose row differs from
   the [before] snapshot. *)
let dirty_sources cache =
  let acc = ref [] in
  Distcache.iter_dirty (fun v -> acc := v :: !acc) cache;
  List.sort_uniq compare !acc

let rows g = Array.init (Graph.n g) (Paths.distances g)

let changed_sources before g =
  List.filter
    (fun v -> Paths.distances g v <> before.(v))
    (List.init (Graph.n g) Fun.id)

let test_delete_dirty_exact () =
  (* The diamond of the alternate-parent test: removing {1,3} stretches
     only the rows of 1, 3 and 4.  Sources 0 and 2 sit at different
     distances from the endpoints, yet neither endpoint row moves at them,
     so they stay clean. *)
  let g = Graph.create 5 in
  Graph.add_edge g ~owner:0 0 1;
  Graph.add_edge g ~owner:0 0 2;
  Graph.add_edge g ~owner:1 1 3;
  Graph.add_edge g ~owner:2 2 3;
  Graph.add_edge g ~owner:3 3 4;
  let cache = Distcache.create 5 in
  fill_all cache g;
  Distcache.clear_dirty cache;
  remove cache g 1 3;
  Alcotest.(check (list int)) "dirty = stretched rows" [ 1; 3; 4 ]
    (dirty_sources cache)

(* ------------------------------------------------------------------ *)
(* QCheck: random move sequences, tables re-checked after every patch  *)
(* ------------------------------------------------------------------ *)

let arb_seq =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 100_000) (int_range 4 14))

(* One random primitive against the current graph: prefer a toggle that
   exists so sequences mix dense and sparse regimes.  Swaps are exercised
   implicitly — a swap is exactly remove-then-add, and the cache is
   patched per primitive. *)
let random_patch rng cache g =
  let n = Graph.n g in
  let a = Random.State.int rng n in
  let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
  if Graph.has_edge g a b then remove cache g a b else add cache g a b

let prop_incremental_matches_fresh_bfs =
  QCheck.Test.make ~count:80
    ~name:"incremental tables = fresh BFS after every random patch"
    arb_seq
    (fun (seed, n) ->
      let rng = Random.State.make [| seed; 0x1ac |] in
      let m = min (n + 3) (n * (n - 1) / 2) in
      let g = Graph.copy (Gen.random_m_edges rng n m) in
      let cache = Distcache.create n in
      fill_all cache g;
      let ok = ref true in
      for _ = 1 to 30 do
        random_patch rng cache g;
        if not (tables_exact cache g) then ok := false
      done;
      !ok)

let prop_tiny_threshold_matches =
  QCheck.Test.make ~count:40
    ~name:"rebuild fallback (threshold 1) is table-identical to repairs"
    arb_seq
    (fun (seed, n) ->
      let rng = Random.State.make [| seed; 0x7f |] in
      let g = Graph.copy (Gen.random_connected rng n 0.3) in
      let cache = Distcache.create ~threshold:1 n in
      fill_all cache g;
      let ok = ref true in
      for _ = 1 to 25 do
        random_patch rng cache g;
        if not (tables_exact cache g) then ok := false
      done;
      !ok)

(* The best-response scan's minus rows: for every edge {u, x}, u's table
   patched by the deletion repair with the edge treated as absent must be
   a BFS of the graph without it, with its reached count, sum and level
   histogram (whose length - 1 is the eccentricity), and must leave the
   graph, u's table and the cache's books as they were.  Random networks
   with m = 2n and m = 4n, random trees, and lines with random or
   directed ownership (on a tree or a line every deletion disconnects);
   half the cases force the full-BFS fallback ([threshold] 1). *)
let arb_minus =
  QCheck.make
    ~print:(fun (seed, n, kind, tiny) ->
      Printf.sprintf "seed=%d n=%d kind=%d threshold=%s" seed n kind
        (if tiny then "1" else "default"))
    QCheck.Gen.(
      quad (int_bound 100_000) (int_range 4 30) (int_bound 4) bool)

let row_stats row =
  let reached = List.length (List.filter (fun d -> d >= 0) row) in
  let sum = List.fold_left (fun acc d -> if d >= 0 then acc + d else acc) 0 row in
  let ecc = List.fold_left max 0 row in
  ( reached,
    sum,
    Array.init (ecc + 1) (fun l -> List.length (List.filter (( = ) l) row)) )

let prop_minus_row_exact =
  QCheck.Test.make ~count:100
    ~name:"minus rows by deletion repair = BFS without the edge" arb_minus
    (fun (seed, n, kind, tiny) ->
      let rng = Random.State.make [| seed; 0x3e1 |] in
      let g =
        match kind with
        | 0 -> Gen.random_m_edges rng n (min (2 * n) (n * (n - 1) / 2))
        | 1 -> Gen.random_m_edges rng n (min (4 * n) (n * (n - 1) / 2))
        | 2 -> Gen.random_tree rng n
        | 3 -> Gen.random_line rng n
        | _ -> Gen.directed_line n
      in
      let g0 = Graph.copy g in
      let cache =
        if tiny then Distcache.create ~threshold:1 n else Distcache.create n
      in
      let ws = Paths.Workspace.create n in
      let model = Model.make Model.Gbg Model.Sum n in
      let ctx = Response.Fast.of_cache ws model g cache in
      List.for_all
        (fun u ->
          let table = Distcache.ensure cache ~ws g u in
          let before =
            (Intvec.to_array table, Distcache.stats cache,
             Distcache.sum_profile cache u)
          in
          List.for_all
            (fun x ->
              let row, st = Response.Fast.minus_row ctx u x in
              let without = Graph.copy g in
              Graph.remove_edge without u x;
              let expect = Paths.distances without u in
              let reached, sum, hist = row_stats (Array.to_list expect) in
              Array.init n (Intvec.get row) = expect
              && st.Response.Fast.rs_reached = reached
              && st.rs_sum = sum && st.rs_hist = hist && Graph.equal g g0
              && (Intvec.to_array table, Distcache.stats cache,
                  Distcache.sum_profile cache u)
                 = before)
            (Graph.neighbors g u))
        (Graph.vertices g))

(* Sparse random networks, where toggles often disconnect the graph; half
   the cases run with the rebuild fallback forced ([threshold] 1). *)
let arb_dirty =
  QCheck.make
    ~print:(fun (seed, n, tiny) ->
      Printf.sprintf "seed=%d n=%d threshold=%s" seed n
        (if tiny then "1" else "default"))
    QCheck.Gen.(triple (int_bound 100_000) (int_range 4 24) bool)

let dirty_setup (seed, n, tiny) salt =
  let rng = Random.State.make [| seed; salt |] in
  let m = min (n * (n - 1) / 2) (n - 1 + Random.State.int rng (n + 2)) in
  let g = Graph.copy (Gen.random_m_edges rng n m) in
  let cache =
    if tiny then Distcache.create ~threshold:1 n else Distcache.create n
  in
  fill_all cache g;
  (rng, g, cache)

(* Half the toggles delete an existing edge, so deletions are exercised as
   often as insertions even in sparse graphs. *)
let random_toggle rng cache g =
  match Graph.edges g with
  | edges when edges <> [] && Random.State.bool rng ->
      let a, b, _ = List.nth edges (Random.State.int rng (List.length edges)) in
      remove cache g a b
  | _ -> random_patch rng cache g

let prop_dirty_set_exact =
  QCheck.Test.make ~count:200
    ~name:"dirty set = changed rows after every single-edge patch" arb_dirty
    (fun case ->
      let rng, g, cache = dirty_setup case 0xd17 in
      let ok = ref true in
      for _ = 1 to 40 do
        let before = rows g in
        Distcache.clear_dirty cache;
        random_toggle rng cache g;
        if dirty_sources cache <> changed_sources before g then ok := false
      done;
      !ok && tables_exact cache g)

(* A random legal swap: agent [u] trades one of its edges for one to a
   non-neighbor [y]; [None] when the draw admits none. *)
let random_swap rng g =
  let n = Graph.n g in
  let u = Random.State.int rng n and y = Random.State.int rng n in
  match Graph.neighbors g u with
  | nbrs when nbrs <> [] && y <> u && not (Graph.has_edge g u y) ->
      let x = List.nth nbrs (Random.State.int rng (List.length nbrs)) in
      Some (Move.Swap { agent = u; remove = x; add = y })
  | _ -> None

let prop_swap_dirty_superset =
  QCheck.Test.make ~count:100
    ~name:"dirty set covers the changed rows after every swap" arb_dirty
    (fun case ->
      let rng, g, cache = dirty_setup case 0x5a9 in
      let ok = ref true in
      for _ = 1 to 30 do
        match random_swap rng g with
        | None -> ()
        | Some move ->
            let before = rows g in
            Distcache.clear_dirty cache;
            let on_prim = function
              | Move.Added (a, b) -> Distcache.note_added cache g a b
              | Move.Removed (a, b, _) -> Distcache.note_removed cache g a b
            in
            ignore (Move.apply_observed g move ~on_prim);
            let dirty = dirty_sources cache in
            if
              not
                (List.for_all
                   (fun v -> List.mem v dirty)
                   (changed_sources before g))
            then ok := false
      done;
      !ok && tables_exact cache g)

let suite =
  ( "incremental",
    [
      Alcotest.test_case "insert: equidistant keep" `Quick test_insert_keep;
      Alcotest.test_case "insert: cascading repair" `Quick
        test_insert_repair_decreases;
      Alcotest.test_case "insert: unreachable keep" `Quick
        test_insert_unreachable_keep;
      Alcotest.test_case "delete: equidistant keep" `Quick
        test_delete_keep_equidistant;
      Alcotest.test_case "delete: alternate-parent keep" `Quick
        test_delete_fast_keep_alternate_parent;
      Alcotest.test_case "delete: bounded repair" `Quick
        test_delete_repair_increases;
      Alcotest.test_case "delete: disconnection" `Quick test_delete_disconnects;
      Alcotest.test_case "delete: rebuild fallback" `Quick
        test_delete_rebuild_fallback;
      Alcotest.test_case "lazy tables stay lazy" `Quick
        test_lazy_tables_stay_lazy;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_incremental_matches_fresh_bfs;
          prop_tiny_threshold_matches;
          prop_minus_row_exact;
        ]
    @ [
        Alcotest.test_case "delete: dirty set is exact" `Quick
          test_delete_dirty_exact;
      ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_dirty_set_exact; prop_swap_dirty_superset ] )
