let of_profile model g u (p : Paths.profile) ~with_edges =
  if p.Paths.reached < Graph.n g then Cost.disconnected
  else
    let dist =
      match model.Model.dist_mode with
      | Model.Sum -> p.Paths.sum
      | Model.Max -> p.Paths.ecc
    in
    let edge_units = if with_edges then Model.edge_units model g u else 0 in
    Cost.connected ~edge_units ~dist

let cost_ws ws model g u =
  of_profile model g u (Paths.Workspace.profile ws g u) ~with_edges:true

let cost model g u = of_profile model g u (Paths.profile g u) ~with_edges:true

let costs model g = Array.init (Graph.n g) (cost model g)

let social_cost model g =
  Array.fold_left Cost.add Cost.zero (costs model g)

let sorted_cost_vector model g =
  let v = costs model g in
  let unit_price = Model.unit_price model in
  Array.sort (fun a b -> Cost.compare ~unit_price b a) v;
  v

let compare_cost_vectors model a b =
  let unit_price = Model.unit_price model in
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Cost.compare ~unit_price a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let extreme_cost_agents model g keep_best =
  if Graph.n g = 0 then []
  else
  let all = costs model g in
  let unit_price = Model.unit_price model in
  let better a b = if keep_best then Cost.compare ~unit_price a b < 0
    else Cost.compare ~unit_price a b > 0
  in
  let best = ref all.(0) in
  Array.iter (fun c -> if better c !best then best := c) all;
  List.filter
    (fun u -> Cost.compare ~unit_price all.(u) !best = 0)
    (Graph.vertices g)

let max_cost_agents model g = extreme_cost_agents model g false
let center_vertices model g = extreme_cost_agents model g true
