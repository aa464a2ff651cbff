let is_tree g =
  let n = Graph.n g in
  n <= 1 || (Graph.m g = n - 1 && Paths.is_connected g)

let is_forest g =
  (* A graph is a forest iff it has exactly n - c edges, c = #components. *)
  Graph.m g = Graph.n g - List.length (Paths.components g)

let leaves g = List.filter (fun v -> Graph.degree g v = 1) (Graph.vertices g)

let is_star g =
  let n = Graph.n g in
  if n <= 2 then is_tree g
  else
    is_tree g
    && List.exists (fun v -> Graph.degree g v = n - 1) (Graph.vertices g)

let is_double_star g =
  let n = Graph.n g in
  n >= 4 && is_tree g && (not (is_star g))
  &&
  match List.filter (fun v -> Graph.degree g v >= 2) (Graph.vertices g) with
  | [ a; b ] -> Graph.has_edge g a b
  | _ -> false

let longest_path_length g v =
  let p = Paths.profile g v in
  if p.Paths.reached < Graph.n g then
    invalid_arg "Tree.longest_path_length: disconnected graph";
  p.Paths.ecc

let longest_path_targets g v =
  let dist = Paths.distances g v in
  let ecc = Array.fold_left max 0 dist in
  List.filter (fun u -> dist.(u) = ecc) (Graph.vertices g)

let path_between g u v =
  let dist = Paths.distances g u in
  if dist.(v) < 0 then None
  else
    (* Walk back from v choosing any neighbor one step closer to u. *)
    let rec back w acc =
      if w = u then w :: acc
      else
        let prev =
          List.find (fun x -> dist.(x) = dist.(w) - 1) (Graph.neighbors g w)
        in
        back prev (w :: acc)
    in
    Some (back v [])
