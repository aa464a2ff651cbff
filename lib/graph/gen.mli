(** Deterministic and random network generators.

    The random generators implement the initial-network processes of the
    paper verbatim: Section 3.4.1 for the bounded-budget Asymmetric Swap
    Game (every agent owns exactly [k] edges) and Section 4.2.1 for the
    Greedy Buy Game ([m]-edge networks, plus the [random]/[rl]/[dl]
    starting-topology settings of Figures 12 and 14).  All randomness flows
    through an explicit [Random.State.t] so every experiment is
    reproducible from its seed. *)

val path : int -> Graph.t
(** [path n] is [v0 - v1 - ... - v_{n-1}]; edge [{i, i+1}] is owned by
    [i] (the "directed line" convention — see {!directed_line}). *)

val cycle : int -> Graph.t
(** [cycle n] for [n >= 3]; edge [{i, i+1 mod n}] owned by [i]. *)

val star : int -> Graph.t
(** Center [0], leaves own nothing (center owns all edges). *)

val double_star : int -> int -> Graph.t
(** [double_star a b] has adjacent centers [0] and [1] with [a] and [b]
    leaves respectively. *)

val complete : int -> Graph.t

val unit_budget_networks : int -> Graph.t Seq.t
(** Every network on [n] vertices in which each vertex owns exactly one
    edge — the unit-budget states of Thm 3.7, one per vector of far ends
    without a 2-cycle — each built fresh when the sequence reaches it.
    The sequence is persistent: reading it again yields the same networks
    in the same order.  Empty for [n < 3]. *)

val random_tree : Random.State.t -> ?budget:int -> int -> Graph.t
(** The paper's spanning-tree process: start from a uniformly random pair,
    then repeatedly join a uniformly random unmarked vertex to a uniformly
    random marked one.  Each edge's owner is uniform among its endpoints,
    subject to nobody owning more than [budget] edges (default: no
    bound). *)

val random_budget_network : Random.State.t -> int -> int -> Graph.t
(** [random_budget_network rng n k] is the Section 3.4.1 process: a random
    spanning tree followed by random edge insertions, each new edge owned
    by an agent still below budget, until every agent owns exactly [k]
    edges or is saturated (no further simple edge can be added for it —
    unavoidable when [k > (n-1)/2] makes [n*k] exceed the number of vertex
    pairs, e.g. the paper's [k = 10, n = 10] runs).
    @raise Invalid_argument if [k < 1] or [n < 2]. *)

val random_m_edges : Random.State.t -> int -> int -> Graph.t
(** [random_m_edges rng n m] is the Section 4.2.1 process: random spanning
    tree, then uniformly random distinct extra edges until [m] edges, each
    owner uniform among endpoints.
    @raise Invalid_argument if [m < n - 1] or [m > n*(n-1)/2]. *)

val random_line : Random.State.t -> int -> Graph.t
(** The [rl] setting of Figures 12/14: a path whose edge owners are chosen
    uniformly among the endpoints. *)

val directed_line : int -> Graph.t
(** The [dl] setting: a path whose ownership forms a directed path
    (synonym of {!path}). *)

val random_connected : Random.State.t -> int -> float -> Graph.t
(** [random_connected rng n p]: random spanning tree plus each remaining
    pair independently with probability [p]; owners uniform.  Not a paper
    process — used by property tests to fuzz general networks. *)

val random_host_network : Random.State.t -> Graph.t -> float -> Graph.t
(** [random_host_network rng host p]: a random spanning tree of [host]
    plus each remaining host edge independently with probability [p];
    owners uniform among endpoints.  The host-graph analogue of
    {!random_connected} — every edge of the result is buildable, so the
    network is a valid initial state for a game on [host] (Corollaries
    3.6/4.2 topologies, and the simulation service's job intake).
    @raise Invalid_argument if [host] is empty or disconnected. *)
