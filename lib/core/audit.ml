type level = Off | Final | Sampled of int | Every_step

type kind =
  | Asymmetric_adjacency
  | Self_loop
  | Bad_edge_count
  | Ownerless_edge
  | Doubly_owned_edge
  | Disconnected
  | Non_improving_move
  | Happy_agent_selected
  | Stale_cost_key

type violation = {
  kind : kind;
  step : int;
  subject : int option;
  detail : string;
}

let kind_label = function
  | Asymmetric_adjacency -> "half-edge"
  | Self_loop -> "self-loop"
  | Bad_edge_count -> "edge-count"
  | Ownerless_edge -> "ownerless"
  | Doubly_owned_edge -> "doubly-owned"
  | Disconnected -> "disconnected"
  | Non_improving_move -> "non-improving"
  | Happy_agent_selected -> "happy-mover"
  | Stale_cost_key -> "stale-key"

let all_kinds =
  [ Asymmetric_adjacency; Self_loop; Bad_edge_count; Ownerless_edge;
    Doubly_owned_edge; Disconnected; Non_improving_move;
    Happy_agent_selected; Stale_cost_key ]

let kind_of_label s =
  List.find_opt (fun k -> kind_label k = s) all_kinds

let pp_violation fmt v =
  Format.fprintf fmt "%s at step %d%s: %s" (kind_label v.kind) v.step
    (match v.subject with
    | Some u -> Printf.sprintf " (vertex %d)" u
    | None -> "")
    v.detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* The checks below re-derive everything from the public graph interface:
   neighbor lists for one direction, [has_edge]/[owns] (matrix-backed) for
   the other, so a divergence between the two representations is visible. *)
let check_graph ?(require_connected = false) ?(step = -1) model g =
  let violations = ref [] in
  let report kind subject detail =
    violations := { kind; step; subject; detail } :: !violations
  in
  let degree_sum = ref 0 in
  List.iter
    (fun u ->
      let nbrs = Graph.neighbors g u in
      degree_sum := !degree_sum + List.length nbrs;
      List.iter
        (fun v ->
          if v = u then
            report Self_loop (Some u)
              (Printf.sprintf "vertex %d is its own neighbor" u)
          else if
            not (Graph.has_edge g u v && List.mem u (Graph.neighbors g v))
          then
            report Asymmetric_adjacency (Some v)
              (Printf.sprintf "%d lists %d but {%d,%d} is not mutual" u v u
                 v))
        nbrs)
    (Graph.vertices g);
  if !degree_sum <> 2 * Graph.m g then
    report Bad_edge_count None
      (Printf.sprintf "degree sum %d but edge count %d" !degree_sum
         (Graph.m g));
  if Model.uses_ownership model then
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            if u < v && List.mem u (Graph.neighbors g v) then
              match (Graph.owns g u v, Graph.owns g v u) with
              | true, true ->
                  report Doubly_owned_edge (Some u)
                    (Printf.sprintf "edge {%d,%d} owned by both endpoints" u
                       v)
              | false, false ->
                  report Ownerless_edge (Some u)
                    (Printf.sprintf "edge {%d,%d} owned by neither endpoint"
                       u v)
              | true, false | false, true -> ())
          (Graph.neighbors g u))
      (Graph.vertices g);
  if require_connected && not (Paths.is_connected g) then
    report Disconnected None
      (Printf.sprintf "%d components"
         (List.length (Paths.components g)));
  List.rev !violations

let check_move ~step model ~mover ~before ~after =
  let unit_price = Model.unit_price model in
  if Cost.lt ~unit_price after before then None
  else
    Some
      {
        kind = Non_improving_move;
        step;
        subject = Some mover;
        detail =
          Printf.sprintf "agent %d moved from cost %s to %s" mover
            (Cost.to_string before) (Cost.to_string after);
      }

(* The key is re-derived here from a fresh BFS rather than through
   [Response.Fast.cost_key], which reads the distance cache under audit. *)
let check_board ~step ~ws model g board =
  let { Ncg_rational.Q.num; den } = Model.unit_price model in
  let fresh u =
    match Agents.cost_ws ws model g u with
    | Cost.Disconnected -> max_int
    | Cost.Connected { edge_units; dist } -> (edge_units * num) + (dist * den)
  in
  let rec scan u =
    if u >= Graph.n g then None
    else
      let want = fresh u in
      match Costboard.key board u with
      | Some k when k = want -> scan (u + 1)
      | k ->
          Some
            {
              kind = Stale_cost_key;
              step;
              subject = Some u;
              detail =
                Printf.sprintf "agent %d board key %s, fresh key %d" u
                  (match k with Some k -> string_of_int k | None -> "missing")
                  want;
            }
  in
  scan 0

let should_check level step =
  match level with
  | Off | Final -> false
  | Every_step -> true
  | Sampled k -> k > 0 && step mod k = 0
