type tree_shape = Star | Double_star | Other_tree | Not_a_tree

let tree_shape g =
  if not (Tree.is_tree g) then Not_a_tree
  else if Tree.is_star g then Star
  else if Tree.is_double_star g then Double_star
  else Other_tree

let stable_tree_shape_ok model g =
  if not (Tree.is_tree g) then true
  else
    match (Paths.diameter g, model.Model.dist_mode) with
    | None, _ -> false
    | Some d, Model.Max -> d <= 3
    | Some d, Model.Sum -> d <= 2

let thm21_step_bound n =
  let sum = ref n in
  for i = 3 to n - 1 do
    sum := !sum + (((n * i) - (i * i)) / 2) + 1
  done;
  !sum

let cor32_asg_envelope n = max 0 (n + ((n + 1) / 2) - 5)

let cor32_parity_bound n =
  if n mod 2 = 0 then max 0 (n - 3) else cor32_asg_envelope n

let nlogn n = float_of_int n *. (log (float_of_int n) /. log 2.0)

(* The two sides of a tree swap: [v] swaps edge v-u to v-w.  [A] is v's
   side once v-u is removed, [B] the rest. *)
let swap_sides g move =
  match move with
  | Move.Swap { agent = v; remove = u; add = _ } ->
      if not (Graph.has_edge g v u) then None
      else begin
        Graph.remove_edge g v u;
        let reach_v = Paths.distances g v in
        let owner = v in
        Graph.add_edge g ~owner v u;
        let side_a =
          List.filter (fun x -> reach_v.(x) >= 0) (Graph.vertices g)
        in
        let side_b =
          List.filter (fun x -> reach_v.(x) < 0) (Graph.vertices g)
        in
        Some (v, side_a, side_b)
      end
  | Move.Buy _ | Move.Delete _ | Move.Set_own_edges _ | Move.Set_neighbors _
    ->
      None

let improving_max_swap model g move =
  let e = Response.evaluate model g move in
  Cost.lt ~unit_price:(Model.unit_price model) e.Response.after
    e.Response.before

let max_model g = Model.make Model.Sg Model.Max (Graph.n g)

let lemma22_holds g move =
  let model = max_model g in
  if not (Tree.is_tree g) then true
  else if not (improving_max_swap model g move) then true
  else
    match swap_sides g move with
    | None -> true
    | Some (_, side_a, _) ->
        let ecc_before = Paths.eccentricities g in
        let ecc_after =
          Move.with_applied g move (fun g -> Paths.eccentricities g)
        in
        (match (ecc_before, ecc_after) with
        | Some before, Some after ->
            List.for_all (fun x -> after.(x) < before.(x)) side_a
        | None, _ | _, None -> false)

let lemma24_holds g move =
  let model = max_model g in
  if not (Tree.is_tree g) then true
  else if not (improving_max_swap model g move) then true
  else
    match swap_sides g move with
    | None -> true
    | Some (_, side_a, side_b) ->
        if side_b = [] then true
        else
          let ecc_before = Paths.eccentricities g in
          let after =
            Move.with_applied g move (fun g ->
                (Paths.eccentricities g,
                 List.map (fun y -> (y, Paths.distances g y)) side_b))
          in
          (match (ecc_before, after) with
          | Some before, (Some after, dists_b) ->
              (* literal statement: whenever y's new eccentricity is
                 realised at some x in A, x's old cost exceeds it *)
              List.for_all
                (fun (y, dist_y) ->
                  List.for_all
                    (fun x ->
                      dist_y.(x) <> after.(y) || before.(x) > after.(y))
                    side_a)
                dists_b
          | None, _ | _, (None, _) -> false)

let lemma28_holds g =
  if not (Tree.is_tree g) || Graph.n g = 0 then true
  else
    let centers = Paths.center g in
    List.for_all
      (fun v ->
        let targets = Tree.longest_path_targets g v in
        List.for_all
          (fun w ->
            match Tree.path_between g v w with
            | None -> false
            | Some path ->
                List.for_all (fun c -> List.mem c path) centers)
          targets)
      (Graph.vertices g)

let obs29_holds g =
  if not (Tree.is_tree g) || Graph.n g < 2 then true
  else
    match Paths.eccentricities g with
    | None -> false
    | Some ecc ->
        let sorted = Array.copy ecc in
        Array.sort (fun a b -> compare b a) sorted;
        let top = sorted.(0) in
        let second = sorted.(1) in
        let bottom = sorted.(Array.length sorted - 1) in
        top = second && bottom = (top + 1) / 2
