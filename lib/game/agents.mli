(** Agent cost evaluation over a network.

    Thin layer combining the distance engine with the model's edge-unit
    accounting.  The [ws]-taking variants are allocation-free and used in
    the dynamics hot loop. *)

val of_profile :
  Model.t -> Graph.t -> int -> Paths.profile -> with_edges:bool -> Cost.t
(** [of_profile model g u p] converts a BFS profile from [u] into [u]'s
    cost: [Disconnected] if the profile did not reach every vertex,
    otherwise the model's distance measure plus (with [with_edges]) the
    agent's edge units.  The building block behind every cost function
    here, exposed for the fast-path evaluator. *)

val cost : Model.t -> Graph.t -> int -> Cost.t
(** [cost model g u] is agent [u]'s full cost in [g]. *)

val cost_ws : Paths.Workspace.t -> Model.t -> Graph.t -> int -> Cost.t

val costs : Model.t -> Graph.t -> Cost.t array
(** All agents' costs — one BFS per agent. *)

val social_cost : Model.t -> Graph.t -> Cost.t
(** Sum of all agents' costs; [Disconnected] if the network is. *)

val sorted_cost_vector : Model.t -> Graph.t -> Cost.t array
(** Costs in non-increasing order — the paper's sorted cost vector
    (Definition 2.5), the generalized ordinal potential of the MAX-SG on
    trees. *)

val compare_cost_vectors : Model.t -> Cost.t array -> Cost.t array -> int
(** Lexicographic comparison under the model's unit price. *)

val max_cost_agents : Model.t -> Graph.t -> int list
(** Agents attaining the maximum cost. *)

val center_vertices : Model.t -> Graph.t -> int list
(** Agents attaining the minimum cost — center-vertices in the sense of
    Definition 2.5 (for the MAX-SG these are the graph centers). *)
