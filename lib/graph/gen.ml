let path n =
  Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let directed_line n = path n

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need at least 3 vertices";
  Graph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let star n = Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let double_star a b =
  if a < 1 || b < 1 then invalid_arg "Gen.double_star: need leaves on both";
  let n = a + b + 2 in
  let left = List.init a (fun i -> (0, 2 + i)) in
  let right = List.init b (fun i -> (1, 2 + a + i)) in
  Graph.of_edges n (((0, 1) :: left) @ right)

let complete n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.add_edge g ~owner:u u v
    done
  done;
  g

(* Vertex i picks its edge's far end t_i <> i in increasing order, vertex
   0's choice varying slowest; a pick that would close a 2-cycle
   (t_{t_i} = i) names an edge already in the network and is skipped. *)
let unit_budget_networks n =
  let rec extend i chosen =
    if i = n then Seq.return (Graph.of_edges n (List.rev chosen))
    else
      Seq.init n Fun.id
      |> Seq.filter (fun t -> t <> i && not (List.mem (t, i) chosen))
      |> Seq.flat_map (fun t -> extend (i + 1) ((i, t) :: chosen))
  in
  extend 0 []

(* Pick the owner of a fresh edge uniformly among the endpoints still below
   [budget]; max_int means unbounded. *)
let pick_owner rng g budget u v =
  let open_u = Graph.owned_degree g u < budget in
  let open_v = Graph.owned_degree g v < budget in
  match (open_u, open_v) with
  | true, true -> if Random.State.bool rng then u else v
  | true, false -> u
  | false, true -> v
  | false, false ->
      (* Callers guarantee at least one endpoint is open. *)
      assert false

let random_tree rng ?(budget = max_int) n =
  if n < 0 then invalid_arg "Gen.random_tree";
  let g = Graph.create n in
  if n >= 2 then begin
    (* The paper's process: seed with a random pair, then repeatedly attach a
       random unmarked vertex to a random marked one.  [marked] is a growing
       prefix of an array we shuffle into as we go. *)
    let order = Array.init n (fun i -> i) in
    let swap i j =
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    in
    swap 0 (Random.State.int rng n);
    swap 1 (1 + Random.State.int rng (n - 1));
    let u = order.(0) and v = order.(1) in
    Graph.add_edge g ~owner:(pick_owner rng g budget u v) u v;
    for marked = 2 to n - 1 do
      swap marked (marked + Random.State.int rng (n - marked));
      let fresh = order.(marked) in
      let anchor = order.(Random.State.int rng marked) in
      let owner =
        (* Budget can block both endpoints only if budget*n < n-1 edges,
           i.e. budget = 0, which the public generators exclude; fall back
           to the anchor if the fresh vertex is somehow saturated. *)
        if
          Graph.owned_degree g fresh < budget
          || Graph.owned_degree g anchor < budget
        then pick_owner rng g budget fresh anchor
        else anchor
      in
      Graph.add_edge g ~owner fresh anchor
    done
  end;
  g

let random_budget_network rng n k =
  if n < 2 then invalid_arg "Gen.random_budget_network: need n >= 2";
  if k < 1 then invalid_arg "Gen.random_budget_network: need k >= 1";
  let g = random_tree rng ~budget:k n in
  (* Insertion phase: every agent still below budget buys random new edges
     until it owns exactly k, or no simple edge remains available to it. *)
  let saturated u =
    Graph.owned_degree g u >= k || Graph.degree g u = n - 1
  in
  let unsaturated () =
    List.filter (fun u -> not (saturated u)) (Graph.vertices g)
  in
  let rec fill candidates =
    match candidates with
    | [] -> ()
    | us ->
        let u = List.nth us (Random.State.int rng (List.length us)) in
        let targets =
          List.filter
            (fun v -> v <> u && not (Graph.has_edge g u v))
            (Graph.vertices g)
        in
        (match targets with
        | [] -> ()
        | ts ->
            let v = List.nth ts (Random.State.int rng (List.length ts)) in
            Graph.add_edge g ~owner:u u v);
        fill (unsaturated ())
  in
  fill (unsaturated ());
  g

let random_m_edges rng n m =
  if n < 1 then invalid_arg "Gen.random_m_edges: need n >= 1";
  if m < n - 1 || m > n * (n - 1) / 2 then
    invalid_arg "Gen.random_m_edges: m out of range";
  let g = random_tree rng n in
  while Graph.m g < m do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Graph.has_edge g u v) then
      Graph.add_edge g ~owner:(if Random.State.bool rng then u else v) u v
  done;
  g

let random_line rng n =
  let g = Graph.create n in
  for i = 0 to n - 2 do
    let owner = if Random.State.bool rng then i else i + 1 in
    Graph.add_edge g ~owner i (i + 1)
  done;
  g

let random_connected rng n p =
  if n < 1 then invalid_arg "Gen.random_connected";
  let g = random_tree rng n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if (not (Graph.has_edge g u v)) && Random.State.float rng 1.0 < p then
        Graph.add_edge g ~owner:(if Random.State.bool rng then u else v) u v
    done
  done;
  g

let random_host_network rng host p =
  let n = Graph.n host in
  if n < 1 then invalid_arg "Gen.random_host_network";
  let g = Graph.create n in
  if n > 1 then begin
    (* Random spanning tree of the host: repeatedly attach a uniformly
       random unmarked vertex that has a marked host-neighbor, through a
       uniformly random such neighbor.  Mirrors [random_tree], restricted
       to buildable edges; fails if the host is disconnected. *)
    let marked = Array.make n false in
    marked.(Random.State.int rng n) <- true;
    for _ = 2 to n do
      let frontier =
        List.filter
          (fun v ->
            (not marked.(v))
            && List.exists (fun u -> marked.(u)) (Graph.neighbors host v))
          (Graph.vertices host)
      in
      match frontier with
      | [] -> invalid_arg "Gen.random_host_network: host graph disconnected"
      | vs ->
          let v = List.nth vs (Random.State.int rng (List.length vs)) in
          let anchors =
            List.filter (fun u -> marked.(u)) (Graph.neighbors host v)
          in
          let u = List.nth anchors (Random.State.int rng (List.length anchors)) in
          marked.(v) <- true;
          Graph.add_edge g ~owner:(if Random.State.bool rng then u else v) u v
    done;
    (* each remaining host edge independently with probability p *)
    Graph.iter_edges
      (fun u v _ ->
        if (not (Graph.has_edge g u v)) && Random.State.float rng 1.0 < p then
          Graph.add_edge g ~owner:(if Random.State.bool rng then u else v) u v)
      host
  end;
  g
