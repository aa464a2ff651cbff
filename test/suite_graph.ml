(* Tests for the ncg_graph substrate: structure, distances, generators,
   isomorphism, canonical encodings, host graphs. *)
open Ncg_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Graph structure                                                     *)
(* ------------------------------------------------------------------ *)

let test_build () =
  let g = Graph.create 4 in
  check_int "no vertices' edges yet" 0 (Graph.m g);
  Graph.add_edge g ~owner:0 0 1;
  Graph.add_edge g ~owner:2 1 2;
  check_int "m" 2 (Graph.m g);
  check_int "n" 4 (Graph.n g);
  check "has 0-1" true (Graph.has_edge g 0 1);
  check "has 1-0 (symmetric)" true (Graph.has_edge g 1 0);
  check "no 0-2" false (Graph.has_edge g 0 2);
  check_int "owner of 0-1" 0 (Graph.owner g 0 1);
  check_int "owner of 2-1" 2 (Graph.owner g 1 2);
  check "owns" true (Graph.owns g 2 1);
  check "not owns" false (Graph.owns g 1 2);
  check_int "degree 1" 2 (Graph.degree g 1);
  check_int "owned degree 1" 0 (Graph.owned_degree g 1);
  check_int "owned degree 2" 1 (Graph.owned_degree g 2)

let test_build_errors () =
  let g = Graph.create 3 in
  Graph.add_edge g ~owner:0 0 1;
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "self loop" (fun () -> Graph.add_edge g ~owner:0 0 0);
  raises "duplicate" (fun () -> Graph.add_edge g ~owner:1 1 0);
  raises "foreign owner" (fun () -> Graph.add_edge g ~owner:0 1 2);
  raises "out of range" (fun () -> Graph.add_edge g ~owner:5 5 1);
  raises "remove absent" (fun () -> Graph.remove_edge g 1 2);
  raises "owner of absent" (fun () -> ignore (Graph.owner g 1 2))

let test_remove () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  Graph.remove_edge g 1 0;
  check "removed" false (Graph.has_edge g 0 1);
  check_int "m after removal" 1 (Graph.m g);
  check_int "degree drops" 1 (Graph.degree g 1);
  Graph.add_edge g ~owner:1 1 0;
  check_int "owner can change on re-add" 1 (Graph.owner g 0 1)

let test_copy_independent () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.copy g in
  Graph.add_edge g ~owner:1 1 2;
  check "copy unaffected" false (Graph.has_edge h 1 2);
  check "original has it" true (Graph.has_edge g 1 2)

let test_edges_and_equal () =
  let g = Graph.of_edges 4 [ (2, 1); (0, 3) ] in
  Alcotest.(check (list (triple int int int)))
    "edges sorted with owners" [ (0, 3, 0); (1, 2, 2) ] (Graph.edges g);
  let h = Graph.of_edges 4 [ (0, 3); (2, 1) ] in
  check "equal regardless of insertion order" true (Graph.equal g h);
  let k = Graph.of_edges 4 [ (3, 0); (2, 1) ] in
  check "ownership matters for equal" false (Graph.equal g k)

let test_of_unowned () =
  let g = Graph.of_unowned_edges 3 [ (2, 0) ] in
  check_int "owner is min endpoint" 0 (Graph.owner g 0 2)

(* ------------------------------------------------------------------ *)
(* Mutation sequences against a naive edge-set model                   *)
(* ------------------------------------------------------------------ *)

(* The model maps each edge (u, v), u < v, to its owner.  Vertex operands
   are drawn from [0, 69] and reduced mod n, so every n in [1, 70] sees
   in-range pairs, self-loops and (for small n) repeats.  Any n that is not
   a multiple of 8 starts bit-matrix rows mid-byte, and a few hundred
   operations fill the CSR's initial capacity of max 8 n half-edges, so
   [Csr.grow] runs mid-sequence. *)
module Edges = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type op =
  | Add of int * int * bool  (* owner is the first endpoint iff true *)
  | Remove of int * int  (* usually absent: the error path *)
  | Remove_nth of int  (* an existing edge, index mod m *)
  | Copy  (* continue on a copy; the original must stay as it was *)

let show_op = function
  | Add (u, v, b) -> Printf.sprintf "add %d %d %b" u v b
  | Remove (u, v) -> Printf.sprintf "remove %d %d" u v
  | Remove_nth k -> Printf.sprintf "remove #%d" k
  | Copy -> "copy"

let gen_op =
  QCheck.Gen.(
    let vertex = int_bound 69 in
    frequency
      [
        (6, map3 (fun u v b -> Add (u, v, b)) vertex vertex bool);
        (1, map2 (fun u v -> Remove (u, v)) vertex vertex);
        (3, map (fun k -> Remove_nth k) (int_bound 10_000));
        (1, return Copy);
      ])

let arb_mutations =
  QCheck.make
    ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_range 1 70) (list_size (int_range 1 400) gen_op))

let key u v = (min u v, max u v)

(* The model as an owner matrix (-1: no edge), for O(1) lookups. *)
let owner_matrix n model =
  let own = Array.make_matrix n n (-1) in
  Edges.iter
    (fun (u, v) o ->
      own.(u).(v) <- o;
      own.(v).(u) <- o)
    model;
  own

(* Every per-vertex read of [g] at [u] agrees with the model: neighbor
   lists, degrees, and [has_edge]/[owns]/[owner] against every [v]. *)
let vertex_disagreement n own g u =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let nbrs = List.filter (fun v -> own.(u).(v) >= 0) (List.init n Fun.id) in
  let owned = List.filter (fun v -> own.(u).(v) = u) nbrs in
  let rec pairs v =
    if v >= n then None
    else
      let o = own.(u).(v) in
      if Graph.has_edge g u v <> (o >= 0) then fail "has_edge %d %d" u v
      else if Graph.owns g u v <> (o = u) then fail "owns %d %d" u v
      else if o >= 0 && Graph.owner g u v <> o then fail "owner %d %d" u v
      else pairs (v + 1)
  in
  if Graph.neighbors g u <> nbrs then fail "neighbors %d" u
  else if Graph.owned_neighbors g u <> owned then fail "owned_neighbors %d" u
  else if Graph.degree g u <> List.length nbrs then fail "degree %d" u
  else if Graph.owned_degree g u <> List.length owned then
    fail "owned_degree %d" u
  else pairs 0

(* Every read of [g] agrees with [model]: the per-vertex reads at every
   vertex, [m], the order of [edges] and [fold_edges], and [equal] against
   a graph rebuilt from the model in another insertion order. *)
let disagreement n model g =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let expected =
    List.map (fun ((u, v), o) -> (u, v, o)) (Edges.bindings model)
  in
  let rebuilt = Graph.create n in
  List.iter
    (fun (u, v, o) -> Graph.add_edge rebuilt ~owner:o v u)
    (List.rev expected);
  let own = owner_matrix n model in
  if Graph.n g <> n then fail "n"
  else if Graph.m g <> Edges.cardinal model then fail "m"
  else if Graph.edges g <> expected then fail "edges"
  else if
    List.rev (Graph.fold_edges (fun u v o acc -> (u, v, o) :: acc) g [])
    <> expected
  then fail "fold_edges order"
  else if not (Graph.equal g rebuilt && Graph.equal rebuilt g) then
    fail "equal to its rebuild"
  else List.find_map (vertex_disagreement n own g) (List.init n Fun.id)

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* Runs [ops] from the empty graph on [n] vertices.  After each operation
   the per-vertex reads at the touched endpoints are checked, and every
   read every 16 operations, at every [Copy] and at the end; graphs left
   behind by a [Copy] are checked against their snapshot of the model
   once the sequence is done.  Returns the first disagreement and the
   final graph. *)
let run_mutations n ops =
  let frozen = ref [] in
  let rec go i g model = function
    | [] -> (disagreement n model g, g)
    | op :: rest -> (
        let g, model, touched, err =
          match op with
          | Add (u, v, first) ->
              let u = u mod n and v = v mod n in
              let owner = if first then u else v in
              if u = v || Edges.mem (key u v) model then
                ( g,
                  model,
                  [ u; v ],
                  if raises_invalid (fun () -> Graph.add_edge g ~owner u v)
                  then None
                  else Some "add of a self-loop or duplicate accepted" )
              else begin
                Graph.add_edge g ~owner u v;
                (g, Edges.add (key u v) owner model, [ u; v ], None)
              end
          | Remove (u, v) ->
              let u = u mod n and v = v mod n in
              if Edges.mem (key u v) model then begin
                Graph.remove_edge g u v;
                (g, Edges.remove (key u v) model, [ u; v ], None)
              end
              else
                ( g,
                  model,
                  [ u; v ],
                  if raises_invalid (fun () -> Graph.remove_edge g u v) then
                    None
                  else Some "remove of an absent edge accepted" )
          | Remove_nth k -> (
              match
                List.nth_opt (Edges.bindings model)
                  (k mod max 1 (Edges.cardinal model))
              with
              | None -> (g, model, [], None)
              | Some ((u, v), _) ->
                  (* either orientation must address the same edge *)
                  if k land 1 = 0 then Graph.remove_edge g u v
                  else Graph.remove_edge g v u;
                  (g, Edges.remove (u, v) model, [ u; v ], None))
          | Copy ->
              frozen := (g, model) :: !frozen;
              (Graph.copy g, model, [], None)
        in
        let err =
          match err with
          | Some _ -> err
          | None when op = Copy || i mod 16 = 15 -> disagreement n model g
          | None ->
              let own = owner_matrix n model in
              List.find_map (vertex_disagreement n own g) touched
        in
        match err with
        | Some e -> (Some (show_op op ^ ": " ^ e), g)
        | None -> go (i + 1) g model rest)
  in
  let err, g = go 0 (Graph.create n) Edges.empty ops in
  let err =
    match err with
    | Some _ -> err
    | None ->
        List.find_map
          (fun (orig, model) ->
            Option.map
              (fun d -> "original changed after copy: " ^ d)
              (disagreement n model orig))
          !frozen
  in
  (err, g)

let mutation_properties =
  [
    QCheck.Test.make ~count:60
      ~name:"add/remove/copy sequences agree with an edge-set model"
      arb_mutations (fun (n, ops) ->
        match fst (run_mutations n ops) with
        | None -> true
        | Some e -> QCheck.Test.fail_report e);
  ]

(* The property above only reaches [Csr.grow] when a sequence outlasts the
   initial capacity; pin one that provably does. *)
let test_mutations_through_grow () =
  let n = 70 in
  let ops =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 13 |])
      (QCheck.Gen.list_repeat 400 gen_op)
  in
  let err, g = run_mutations n ops in
  Alcotest.(check (option string)) "model agrees" None err;
  check "CSR grew past its initial capacity" true
    (Intvec.dim (Csr.targets (Graph.csr g)) > max 8 n)

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let test_distances_path () =
  let g = Gen.path 5 in
  let d = Paths.distances g 0 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4 |] d;
  check_int "pairwise" 3 (Paths.distances g 1).(4);
  let p = Paths.profile g 0 in
  check_int "profile sum" 10 p.Paths.sum;
  check_int "profile ecc" 4 p.Paths.ecc;
  check_int "profile reached" 5 p.Paths.reached

let test_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  check "not connected" false (Paths.is_connected g);
  check_int "unreachable is -1" (-1) (Paths.distances g 0).(3);
  check "no diameter" true (Paths.diameter g = None);
  check "no eccentricities" true (Paths.eccentricities g = None);
  check_int "two components of sizes 2,1,1" 3
    (List.length (Paths.components g));
  Alcotest.(check (list (list int)))
    "components content"
    [ [ 0; 1 ]; [ 2 ]; [ 3 ] ]
    (Paths.components g)

let test_center_radius () =
  let g = Gen.path 5 in
  Alcotest.(check (list int)) "path center" [ 2 ] (Paths.center g);
  check "radius" true (Paths.radius g = Some 2);
  check "diameter" true (Paths.diameter g = Some 4);
  let s = Gen.star 6 in
  Alcotest.(check (list int)) "star center" [ 0 ] (Paths.center s);
  check "star diameter 2" true (Paths.diameter s = Some 2)

let test_trivial_graphs () =
  let g1 = Graph.create 1 in
  check "singleton connected" true (Paths.is_connected g1);
  check "singleton diameter 0" true (Paths.diameter g1 = Some 0);
  let g0 = Graph.create 0 in
  check "empty connected" true (Paths.is_connected g0)

let test_workspace_reuse () =
  let ws = Paths.Workspace.create 10 in
  let g = Gen.cycle 6 in
  let p1 = Paths.Workspace.profile ws g 0 in
  let p2 = Paths.Workspace.profile ws g 3 in
  check_int "cycle ecc from 0" 3 p1.Paths.ecc;
  check_int "cycle ecc from 3" 3 p2.Paths.ecc;
  check_int "cycle sum" (1 + 2 + 3 + 2 + 1) p1.Paths.sum

let test_bounded_profile () =
  let ws = Paths.Workspace.create 10 in
  let g = Gen.path 6 in
  (* from vertex 0: sum = 1+2+3+4+5 = 15, ecc = 5 *)
  let full = Paths.Workspace.profile ws g 0 in
  check "tight sum cutoff completes" true
    (Paths.Workspace.profile_bounded ws g 0 (Paths.Workspace.Sum_at_most 15)
    = Some full);
  check "sum cutoff one short aborts" true
    (Paths.Workspace.profile_bounded ws g 0 (Paths.Workspace.Sum_at_most 14)
    = None);
  check "tight ecc cutoff completes" true
    (Paths.Workspace.profile_bounded ws g 0 (Paths.Workspace.Ecc_at_most 5)
    = Some full);
  check "ecc cutoff one short aborts" true
    (Paths.Workspace.profile_bounded ws g 0 (Paths.Workspace.Ecc_at_most 4)
    = None);
  check "negative cutoff aborts even with sum 0" true
    (Paths.Workspace.profile_bounded ws (Graph.create 1) 0
       (Paths.Workspace.Sum_at_most (-1))
    = None);
  (* a disconnected source can complete within the cutoff; the caller sees
     the disconnection through [reached] *)
  let iso = Graph.of_edges 4 [ (1, 2); (2, 3) ] in
  (match
     Paths.Workspace.profile_bounded ws iso 0 (Paths.Workspace.Sum_at_most 99)
   with
  | Some p -> check_int "lone source reaches itself" 1 p.Paths.reached
  | None -> Alcotest.fail "cutoff 99 cannot be exceeded by sum 0");
  (* workspace survives an aborted scan: the next query is unpolluted *)
  ignore
    (Paths.Workspace.profile_bounded ws g 0 (Paths.Workspace.Sum_at_most 3));
  check "clean state after abort" true
    (Paths.Workspace.profile ws g 0 = full)

let test_workspace_distances () =
  let ws = Paths.Workspace.create 10 in
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 0) ] in
  let d = Paths.Workspace.distances ws g 0 in
  check "workspace distances match Paths.distances" true
    (d = Paths.distances g 0);
  check_int "unreachable is -1" (-1) d.(4);
  (* fresh array each call: mutating one result must not leak *)
  d.(1) <- 99;
  check "results are independent arrays" true
    (Paths.Workspace.distances ws g 0 = Paths.distances g 0)

(* Reference all-pairs via Floyd-Warshall for property testing. *)
let floyd g =
  let n = Graph.n g in
  let inf = 1_000_000 in
  let d = Array.init n (fun _ -> Array.make n inf) in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  Graph.iter_edges
    (fun u v _ ->
      d.(u).(v) <- 1;
      d.(v).(u) <- 1)
    g;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then
          d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  Array.map (Array.map (fun x -> if x >= inf then -1 else x)) d

let arb_graph =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" seed n p)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 2 14)
        (map (fun x -> float_of_int x /. 100.0) (int_bound 40)))

let graph_of (seed, n, p) =
  let rng = Random.State.make [| seed |] in
  Gen.random_connected rng n p

let prop name f = QCheck.Test.make ~count:150 ~name arb_graph f

let path_properties =
  [
    prop "BFS agrees with Floyd-Warshall" (fun params ->
        let g = graph_of params in
        let reference = floyd g in
        List.for_all
          (fun u -> Paths.distances g u = reference.(u))
          (Graph.vertices g));
    prop "profile consistent with distances" (fun params ->
        let g = graph_of params in
        List.for_all
          (fun u ->
            let d = Paths.distances g u in
            let p = Paths.profile g u in
            let finite = Array.to_list d |> List.filter (fun x -> x >= 0) in
            p.Paths.sum = List.fold_left ( + ) 0 finite
            && p.Paths.ecc = List.fold_left max 0 finite
            && p.Paths.reached = List.length finite)
          (Graph.vertices g));
    prop "diameter = max eccentricity" (fun params ->
        let g = graph_of params in
        match (Paths.diameter g, Paths.eccentricities g) with
        | Some d, Some ecc -> d = Array.fold_left max 0 ecc
        | None, None -> true
        | Some _, None | None, Some _ -> false);
    prop "radius <= diameter <= 2 radius" (fun params ->
        let g = graph_of params in
        match (Paths.radius g, Paths.diameter g) with
        | Some r, Some d -> r <= d && d <= 2 * r
        | _, _ -> false);
    prop "bounded profile = exact profile iff within cutoff" (fun params ->
        let g = graph_of params in
        let ws = Paths.Workspace.create (Graph.n g) in
        List.for_all
          (fun u ->
            let p = Paths.profile g u in
            (* probe cutoffs straddling the true value in both modes *)
            List.for_all
              (fun (bound, within) ->
                let got = Paths.Workspace.profile_bounded ws g u bound in
                if within then got = Some p else got = None)
              [
                (Paths.Workspace.Sum_at_most p.Paths.sum, true);
                (Paths.Workspace.Sum_at_most (p.Paths.sum - 1), false);
                (Paths.Workspace.Ecc_at_most p.Paths.ecc, true);
                (* ecc 0 makes this cutoff negative, which also aborts *)
                (Paths.Workspace.Ecc_at_most (p.Paths.ecc - 1), false);
              ])
          (Graph.vertices g));
    prop "workspace distances = Paths.distances" (fun params ->
        let g = graph_of params in
        let ws = Paths.Workspace.create (Graph.n g) in
        List.for_all
          (fun u -> Paths.Workspace.distances ws g u = Paths.distances g u)
          (Graph.vertices g));
  ]

(* ------------------------------------------------------------------ *)
(* Tree                                                                *)
(* ------------------------------------------------------------------ *)

let test_tree_predicates () =
  check "path is tree" true (Tree.is_tree (Gen.path 6));
  check "cycle not tree" false (Tree.is_tree (Gen.cycle 6));
  check "star is star" true (Tree.is_star (Gen.star 6));
  check "path 3 is star" true (Tree.is_star (Gen.path 3));
  check "path 4 not star" false (Tree.is_star (Gen.path 4));
  check "path 4 is double star" true (Tree.is_double_star (Gen.path 4));
  check "double star" true (Tree.is_double_star (Gen.double_star 2 3));
  check "star not double star" false (Tree.is_double_star (Gen.star 6));
  check "path 6 not double star" false (Tree.is_double_star (Gen.path 6));
  check "forest" true
    (Tree.is_forest (Graph.of_edges 4 [ (0, 1); (2, 3) ]));
  check "cycle not forest" false (Tree.is_forest (Gen.cycle 4));
  Alcotest.(check (list int)) "path leaves" [ 0; 4 ] (Tree.leaves (Gen.path 5))

let test_paths_between () =
  let g = Gen.path 5 in
  Alcotest.(check (option (list int)))
    "unique tree path" (Some [ 1; 2; 3 ]) (Tree.path_between g 1 3);
  let d = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check "no path across components" true (Tree.path_between d 0 3 = None);
  check_int "longest path length" 4
    (Tree.longest_path_length (Gen.path 5) 0);
  Alcotest.(check (list int))
    "longest path targets" [ 0; 4 ]
    (Tree.longest_path_targets (Gen.path 5) 2)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let arb_seed_n =
  QCheck.make
    ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 2 40))

let gen_properties =
  [
    QCheck.Test.make ~count:200 ~name:"random_tree is a tree" arb_seed_n
      (fun (s, n) ->
        Tree.is_tree (Gen.random_tree (Random.State.make [| s |]) n));
    QCheck.Test.make ~count:150 ~name:"budget network: connected, owners at k"
      (QCheck.pair arb_seed_n (QCheck.int_range 1 4))
      (fun ((s, n), k) ->
        let n = max n (2 * k + 2) in
        let g = Gen.random_budget_network (Random.State.make [| s |]) n k in
        Paths.is_connected g
        && List.for_all
             (fun v ->
               Graph.owned_degree g v = k || Graph.degree g v = n - 1)
             (Graph.vertices g));
    QCheck.Test.make ~count:150 ~name:"random_m_edges: exact edge count"
      (QCheck.pair arb_seed_n (QCheck.int_range 0 30))
      (fun ((s, n), extra) ->
        let m = min (n - 1 + extra) (n * (n - 1) / 2) in
        let g = Gen.random_m_edges (Random.State.make [| s |]) n m in
        Graph.m g = m && Paths.is_connected g);
    QCheck.Test.make ~count:100 ~name:"random_line is a path" arb_seed_n
      (fun (s, n) ->
        let g = Gen.random_line (Random.State.make [| s |]) n in
        Tree.is_tree g && Paths.diameter g = Some (n - 1));
  ]

let test_gen_shapes () =
  check_int "cycle edges" 5 (Graph.m (Gen.cycle 5));
  check_int "complete edges" 10 (Graph.m (Gen.complete 5));
  check_int "double star size" 7 (Graph.n (Gen.double_star 2 3));
  (* directed line ownership forms a directed path *)
  let dl = Gen.directed_line 5 in
  check "dl ownership" true
    (List.for_all (fun i -> Graph.owns dl i (i + 1)) [ 0; 1; 2; 3 ]);
  check "budget=1 on dl-like nets" true
    (let g = Gen.random_budget_network (Random.State.make [| 5 |]) 12 1 in
     Graph.m g = 12)

(* ------------------------------------------------------------------ *)
(* Canonical / Host                                                    *)
(* ------------------------------------------------------------------ *)

let shuffle_graph seed g =
  let n = Graph.n g in
  let rng = Random.State.make [| seed |] in
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  (perm, Canonical.relabel g perm)

let iso_properties =
  [
    QCheck.Test.make ~count:100 ~name:"graph iso to shuffled self" arb_graph
      (fun params ->
        let g = graph_of params in
        let _, h = shuffle_graph 17 g in
        Canonical.isomorphism g h <> None);
    QCheck.Test.make ~count:100 ~name:"found mapping is an isomorphism"
      arb_graph (fun params ->
        let g = graph_of params in
        let _, h = shuffle_graph 23 g in
        match Canonical.isomorphism g h with
        | None -> false
        | Some f -> Graph.equal (Canonical.relabel g f) h);
    QCheck.Test.make ~count:100 ~name:"canonical key equal iff same state"
      arb_graph (fun params ->
        let g = graph_of params in
        let h = Graph.copy g in
        Canonical.key g = Canonical.key h);
  ]

let isomorphic ?respect_ownership g h =
  Canonical.isomorphism ?respect_ownership g h <> None

let is_automorphism ?(respect_ownership = true) g f =
  Canonical.state_key ~owned:respect_ownership (Canonical.relabel g f)
  = Canonical.state_key ~owned:respect_ownership g

let test_iso_basics () =
  let p4 = Gen.path 4 and s4 = Gen.star 4 in
  check "path4 not iso star4" false (isomorphic p4 s4);
  check "different sizes" false (isomorphic (Gen.path 3) (Gen.path 4));
  (* ownership-awareness *)
  let g1 = Graph.of_edges 2 [ (0, 1) ] in
  let g2 = Graph.of_edges 2 [ (1, 0) ] in
  check "2 vertices: owner flip still iso (relabel)" true (isomorphic g1 g2);
  let h1 = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let h2 = Graph.of_edges 3 [ (0, 1); (2, 1) ] in
  (* h1's middle owns one edge; h2's middle owns none *)
  check "ownership distinguishes" false (isomorphic h1 h2);
  check "ignored when asked" true (isomorphic ~respect_ownership:false h1 h2);
  check "identity automorphism" true (is_automorphism h1 [| 0; 1; 2 |]);
  check "path flip automorphism needs ownership flip" false
    (is_automorphism h1 [| 2; 1; 0 |]);
  check "path flip ok without ownership" true
    (is_automorphism ~respect_ownership:false h1 [| 2; 1; 0 |]);
  check "relabel rejects a non-permutation" true
    (match Canonical.relabel h1 [| 0; 0; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_canonical () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.of_edges 3 [ (1, 0) ] in
  check "key differs on ownership" true (Canonical.key g <> Canonical.key h);
  check "unowned key ignores ownership" true
    (Canonical.unowned_key g = Canonical.unowned_key h)

let test_normal_form () =
  (* the normal form is a true canonical representative: relabeling an
     instance never changes it *)
  let rng = Random.State.make [| 71 |] in
  for seed = 0 to 19 do
    let g = Gen.random_connected rng (6 + (seed mod 7)) 0.3 in
    let _, h = shuffle_graph (100 + seed) g in
    check "normal forms of isomorphic graphs equal" true
      (Graph.equal (Canonical.normal_form g) (Canonical.normal_form h));
    check "iso_key agrees" true (Canonical.iso_key g = Canonical.iso_key h)
  done;
  (* and non-isomorphic graphs of the same size keep distinct keys *)
  check "path vs star distinct" true
    (Canonical.iso_key (Gen.path 5) <> Canonical.iso_key (Gen.star 5));
  (* the result is isomorphic to the input, not just equal-keyed *)
  let g = Gen.random_connected rng 9 0.3 in
  check "normal form isomorphic to input" true
    (isomorphic g (Canonical.normal_form g));
  (* ownership split: these are edge-isomorphic but not owner-isomorphic *)
  let h1 = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let h2 = Graph.of_edges 3 [ (0, 1); (2, 1) ] in
  check "owner-respecting keys differ" true
    (Canonical.iso_key h1 <> Canonical.iso_key h2);
  check "unowned keys agree" true
    (Canonical.iso_key ~respect_ownership:false h1
    = Canonical.iso_key ~respect_ownership:false h2)

let test_normal_form_symmetric () =
  (* automorphism pruning (orbit closure at the root, backjumping below)
     keeps maximally symmetric families inside the default budget: a
     naive search would visit 40! leaves on the star *)
  let s = Gen.star 40 in
  let _, s' = shuffle_graph 3 s in
  check "star40 canonicalizes within default budget" true
    (Canonical.iso_key s = Canonical.iso_key s');
  let c = Gen.cycle 40 in
  let _, c' = shuffle_graph 5 c in
  check "cycle40 canonicalizes within default budget" true
    (Canonical.iso_key c = Canonical.iso_key c');
  (* a starved budget raises instead of stalling, so cache layers can
     fall back to not deduplicating *)
  check "tiny budget raises Budget_exceeded" true
    (match Canonical.normal_form ~budget:10 (Gen.star 30) with
    | exception Canonical.Budget_exceeded -> true
    | _ -> false)

let test_host () =
  let h = Host.complete 4 in
  check "complete allows" true (Host.allows h 0 3);
  check "never self" false (Host.allows h 2 2);
  check "is complete" true (Host.is_complete h);
  let r = Host.without 4 [ (0, 3) ] in
  check "without blocks" false (Host.allows r 0 3);
  check "without blocks symmetric" false (Host.allows r 3 0);
  check "others fine" true (Host.allows r 0 2);
  check "not complete" false (Host.is_complete r);
  let g = Gen.path 4 in
  check "subgraph ok" true (Host.subgraph_ok r g);
  let bad = Graph.of_edges 4 [ (0, 3) ] in
  check "subgraph violation" false (Host.subgraph_ok r bad);
  let hg = Host.of_graph (Gen.path 4) in
  check "of_graph allows path edges" true (Host.allows hg 1 2);
  check "of_graph blocks others" false (Host.allows hg 0 2)

let test_dot () =
  let g = Graph.of_edges 3 [ (0, 1); (2, 1) ] in
  let dot = Dot.to_dot ~labels:(fun v -> String.make 1 "abc".[v]) g in
  check "mentions arrow 0->1" true
    (Astring_like.contains dot "0 -> 1");
  check "mentions arrow 2->1" true (Astring_like.contains dot "2 -> 1")

(* ------------------------------------------------------------------ *)
(* The added-edge kernel behind the fast buy and swap scores            *)
(* ------------------------------------------------------------------ *)

(* Sparse G(n, p) graphs: many are disconnected, some have isolated
   vertices, so the kernel's unreachable branches all run. *)
let arb_sparse =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" seed n p)
    QCheck.Gen.(
      triple (int_bound 100_000) (int_range 1 30)
        (map (fun x -> float_of_int x /. 100.0) (int_bound 25)))

let sparse_graph (seed, n, p) =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then Graph.add_edge g ~owner:u u v
    done
  done;
  g

(* [profile_with_edge] over [base] (the source's distances in [g], or in
   [g] minus one of its edges), fed the aggregates it expects. *)
let kernel ?bound ws g base y =
  let reached = ref 0 and sum = ref 0 and ecc = ref 0 in
  Array.iter
    (fun d ->
      if d >= 0 then begin
        incr reached;
        sum := !sum + d;
        ecc := max !ecc d
      end)
    base;
  let hist = Array.make (!ecc + 1) 0 in
  Array.iter (fun d -> if d >= 0 then hist.(d) <- hist.(d) + 1) base;
  Paths.Workspace.profile_with_edge ws g (Intvec.of_array base)
    ~reached:!reached ~sum:!sum ~hist ?bound y

let profile_plus g s y =
  let g' = Graph.copy g in
  Graph.add_edge g' ~owner:s s y;
  Paths.profile g' s

(* The kernel against [exact], the profile of the edited graph, with no
   budget, with SUM budgets around and far below the exact sum, and with
   MAX budgets around the exact eccentricity and at no cutoff: every
   [Some] is [exact], and [None] comes back only for a budget the exact
   value misses.  Far below every sum, a base row that reaches every
   vertex must stop the BFS: the bound at [y]'s own level already proves
   it. *)
let kernel_agrees ws g base y exact =
  let sum b = Paths.Workspace.Sum_at_most b
  and ecc b = Paths.Workspace.Ecc_at_most b in
  let agrees bound exact_value b =
    match kernel ~bound:(bound b) ws g base y with
    | Some p -> p = exact
    | None -> exact_value > b
  in
  let far = -1 in
  let s = exact.Paths.sum and e = exact.Paths.ecc in
  kernel ws g base y = Some exact
  && List.for_all (agrees sum s) [ s - 1; s; s + 1; far ]
  && List.for_all (agrees ecc e) [ e - 1; e; e + 1; max_int ]
  && (Array.exists (fun d -> d < 0) base
     || kernel ~bound:(sum far) ws g base y = None)

let kernel_properties =
  [
    QCheck.Test.make ~count:100
      ~name:"added-edge kernel = profile of the edited graph" arb_sparse
      (fun params ->
        let g = sparse_graph params in
        let ws = Paths.Workspace.create (Graph.n g) in
        let open_targets h s =
          List.filter
            (fun y -> y <> s && not (Graph.has_edge h s y))
            (Graph.vertices h)
        in
        List.for_all
          (fun s ->
            let base = Paths.distances g s in
            List.for_all
              (fun y -> kernel_agrees ws g base y (profile_plus g s y))
              (open_targets g s)
            && List.for_all
                 (fun x ->
                   let gx = Graph.copy g in
                   Graph.remove_edge gx s x;
                   let base = Paths.distances gx s in
                   (* scored on [g] itself: the kernel never enters [s],
                      so the edge {s, x} is invisible to it *)
                   List.for_all
                     (fun y -> kernel_agrees ws g base y (profile_plus gx s y))
                     (open_targets gx s))
                 (Graph.neighbors g s))
          (Graph.vertices g));
  ]

(* ------------------------------------------------------------------ *)
(* The bit-parallel BFS behind the cost board's table-less keys        *)
(* ------------------------------------------------------------------ *)

(* [m] distinct uniformly random edges and no spanning tree first, so
   small [m] leaves the graph disconnected. *)
let arb_scattered =
  QCheck.make
    ~print:(fun (seed, n, m) -> Printf.sprintf "seed=%d n=%d m=%d" seed n m)
    QCheck.Gen.(
      int_bound 100_000 >>= fun seed ->
      int_range 1 150 >>= fun n ->
      int_bound (min (3 * n) (n * (n - 1) / 2)) >|= fun m -> (seed, n, m))

let scattered_graph rng n m =
  let g = Graph.create n in
  while Graph.m g < m do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Graph.has_edge g u v) then Graph.add_edge g ~owner:u u v
  done;
  g

let multi_properties =
  [
    QCheck.Test.make ~count:100
      ~name:"bit-parallel BFS = per-source profiles at every width"
      arb_scattered (fun (seed, n, m) ->
        let rng = Random.State.make [| seed |] in
        let g = scattered_graph rng n m in
        let ws = Paths.Workspace.create n in
        let want = Array.init n (Paths.Workspace.profile ws g) in
        (* one scratch for every batch: each call must leave it clean *)
        let multi = Paths.Multi.create n in
        let order = Array.init n Fun.id in
        List.for_all
          (fun width ->
            (* a fresh prefix of a Fisher-Yates shuffle: distinct sources *)
            for i = n - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let x = order.(i) in
              order.(i) <- order.(j);
              order.(j) <- x
            done;
            let sources = Array.sub order 0 width in
            Paths.Multi.profiles multi g sources
            = Array.map (fun s -> want.(s)) sources)
          (List.init (min n Paths.Multi.width) (fun i -> i + 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Canonical.isomorphism against brute force                           *)
(* ------------------------------------------------------------------ *)

(* [maps g h f]: [f] is a bijection of the vertices carrying every edge of
   [g] (and, when [respect_ownership], its owner) onto an edge of [h]; with
   equal edge counts that makes it an isomorphism. *)
let maps ~respect_ownership g h f =
  let n = Graph.n g in
  Array.length f = n
  && List.sort compare (Array.to_list f) = List.init n Fun.id
  && Graph.m g = Graph.m h
  && List.for_all
       (fun (u, v, o) ->
         Graph.has_edge h f.(u) f.(v)
         && ((not respect_ownership) || Graph.owner h f.(u) f.(v) = f.(o)))
       (Graph.edges g)

(* Every ordering of a list. *)
let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p)
            (permutations (List.filter (( <> ) x) xs)))
        xs

let brute_isomorphic ~respect_ownership g h =
  Graph.n g = Graph.n h
  && List.exists
       (fun p -> maps ~respect_ownership g h (Array.of_list p))
       (permutations (Graph.vertices g))

(* [h] for [g]: an independent graph with as many edges (kind 0), or a
   relabelled copy (kind 1) with one owner flipped (kind 2) or one edge
   moved (kind 3), so both verdicts and the near misses between them
   come up often.  [scattered_graph] draws each edge as an ordered pair
   and gives it to the first vertex drawn, so owners are random too. *)
let partner rng kind g =
  let n = Graph.n g in
  let h =
    if kind = 0 then scattered_graph rng n (Graph.m g) else Graph.copy g
  in
  let edges = Array.of_list (Graph.edges h) in
  let pick () = edges.(Random.State.int rng (Array.length edges)) in
  (if kind = 2 && edges <> [||] then
     let u, v, o = pick () in
     Graph.remove_edge h u v;
     Graph.add_edge h ~owner:(if o = u then v else u) u v);
  (if kind = 3 && edges <> [||] && Graph.m h < n * (n - 1) / 2 then
     let u, v, _ = pick () in
     Graph.remove_edge h u v;
     let rec add () =
       let a = Random.State.int rng n and b = Random.State.int rng n in
       if a = b || Graph.has_edge h a b || (min a b, max a b) = (u, v) then
         add ()
       else Graph.add_edge h ~owner:a a b
     in
     add ());
  if kind = 0 then h else snd (shuffle_graph (Random.State.bits rng) h)

let arb_iso_pair =
  QCheck.make
    ~print:(fun (seed, n, kind, owned) ->
      Printf.sprintf "seed=%d n=%d kind=%d respect_ownership=%b" seed n kind
        owned)
    QCheck.Gen.(
      quad (int_bound 100_000) (int_range 1 6) (int_bound 3) bool)

let brute_force_properties =
  [
    QCheck.Test.make ~count:300
      ~name:"isomorphism = brute force over every permutation (n <= 6)"
      arb_iso_pair (fun (seed, n, kind, respect_ownership) ->
        let rng = Random.State.make [| seed |] in
        let g =
          scattered_graph rng n (Random.State.int rng ((n * (n - 1) / 2) + 1))
        in
        let h = partner rng kind g in
        match Canonical.isomorphism ~respect_ownership g h with
        | None -> not (brute_isomorphic ~respect_ownership g h)
        | Some f -> maps ~respect_ownership g h f);
  ]

let test_isomorphism_pinned_pairs () =
  let both g h =
    List.iter
      (fun respect_ownership ->
        check "brute force tells them apart" false
          (brute_isomorphic ~respect_ownership g h);
        check "isomorphism tells them apart" true
          (Canonical.isomorphism ~respect_ownership g h = None))
      [ true; false ]
  in
  (* 2-regular on six vertices: colour refinement alone cannot split them *)
  both (Gen.cycle 6)
    (Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]);
  (* 3-regular on six vertices: bipartite against two joined triangles *)
  both
    (Graph.of_edges 6
       (List.concat_map (fun u -> [ (u, 3); (u, 4); (u, 5) ]) [ 0; 1; 2 ]))
    (Graph.of_edges 6
       [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (0, 3); (1, 4);
         (2, 5) ]);
  (* the same path, its middle owning one edge against none *)
  let h1 = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let h2 = Graph.of_edges 3 [ (0, 1); (2, 1) ] in
  check "owner-blind brute force maps them" true
    (brute_isomorphic ~respect_ownership:false h1 h2);
  check "brute force with ownership tells them apart" false
    (brute_isomorphic ~respect_ownership:true h1 h2);
  check "isomorphism with ownership tells them apart" true
    (Canonical.isomorphism h1 h2 = None)

let suite =
  ( "graph",
    [
      Alcotest.test_case "build" `Quick test_build;
      Alcotest.test_case "build errors" `Quick test_build_errors;
      Alcotest.test_case "remove" `Quick test_remove;
      Alcotest.test_case "copy independence" `Quick test_copy_independent;
      Alcotest.test_case "edges and equality" `Quick test_edges_and_equal;
      Alcotest.test_case "unowned construction" `Quick test_of_unowned;
      Alcotest.test_case "path distances" `Quick test_distances_path;
      Alcotest.test_case "disconnected graphs" `Quick test_disconnected;
      Alcotest.test_case "center and radius" `Quick test_center_radius;
      Alcotest.test_case "trivial graphs" `Quick test_trivial_graphs;
      Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
      Alcotest.test_case "bounded profile" `Quick test_bounded_profile;
      Alcotest.test_case "workspace distances" `Quick
        test_workspace_distances;
      Alcotest.test_case "tree predicates" `Quick test_tree_predicates;
      Alcotest.test_case "paths between" `Quick test_paths_between;
      Alcotest.test_case "generator shapes" `Quick test_gen_shapes;
      Alcotest.test_case "iso basics" `Quick test_iso_basics;
      Alcotest.test_case "canonical keys" `Quick test_canonical;
      Alcotest.test_case "normal form invariance" `Quick test_normal_form;
      Alcotest.test_case "normal form on symmetric graphs" `Quick
        test_normal_form_symmetric;
      Alcotest.test_case "host graphs" `Quick test_host;
      Alcotest.test_case "dot export" `Quick test_dot;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        (path_properties @ gen_properties @ iso_properties)
    (* appended so the earlier cases keep their positions in the listing *)
    @ [
        Alcotest.test_case "mutation model through Csr.grow" `Quick
          test_mutations_through_grow;
      ]
    @ List.map QCheck_alcotest.to_alcotest mutation_properties
    @ List.map QCheck_alcotest.to_alcotest kernel_properties
    @ List.map QCheck_alcotest.to_alcotest multi_properties
    @ List.map QCheck_alcotest.to_alcotest brute_force_properties
    @ [
        Alcotest.test_case "isomorphism tells pinned pairs apart" `Quick
          test_isomorphism_pinned_pairs;
      ] )
