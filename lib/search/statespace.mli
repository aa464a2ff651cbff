(** Exhaustive exploration of the improving-move state space.

    The states of a network creation process form a directed graph: one node
    per network, one arc per feasible improving move (or per best response).
    Exhaustively exploring the region reachable from an initial network
    answers the classification questions of Section 1.2 {e for that
    instance}:

    - a reachable stable state exists iff the game is weakly acyclic from
      the initial network (under best responses: BR-weakly-acyclic);
    - no reachable stable state means {e no} sequence of improving moves
      ever stabilises — the strong non-convergence of Corollaries 3.6/4.2;
    - a directed cycle in the best-response graph is a best-response cycle,
      and its absence from every state proves the finite improvement
      property on the explored region.

    States are exact labelled networks (ownership included when the game
    uses it).  Exploration is bounded by [max_states]; hitting the bound
    yields [`Truncated] answers rather than silent lies. *)

type successor_rule =
  | All_improving  (** arcs = every feasible improving move of every agent *)
  | Best_responses  (** arcs = every best response of every agent *)

type exploration = {
  explored : int;  (** states visited *)
  stable : string list;  (** canonical keys of reachable stable states *)
  stable_reps : Graph.t list;
      (** one representative network per stable key, aligned with [stable] —
          what equilibrium classification ({!Classify.classify_sink}) runs
          on *)
  truncated : bool;
}

val explore :
  ?max_states:int ->
  ?rule:successor_rule ->
  Model.t ->
  Graph.t ->
  exploration
(** Breadth-first closure of the reachable region.  [max_states] defaults
    to 100_000; [rule] to [All_improving]. *)

val reachable_stable_state :
  ?max_states:int ->
  ?rule:successor_rule ->
  Model.t ->
  Graph.t ->
  [ `Found of Graph.t | `None | `Truncated ]
(** Early-exits as soon as any reachable stable network is found.  [`None]
    proves the game is not weakly acyclic from this state (not BR-weakly-
    acyclic under [Best_responses]). *)

type cycle = { start : Graph.t; moves : Move.t list }
(** A state together with moves that return to it exactly. *)

val find_cycle :
  ?max_states:int ->
  ?rule:successor_rule ->
  Model.t ->
  Graph.t ->
  [ `Cycle of cycle | `Acyclic | `Truncated ]
(** Depth-first search for a directed cycle among reachable states, run
    entirely on an explicit heap-allocated stack (a while loop, no
    recursion) so arbitrarily deep regions cannot overflow the call
    stack.  [`Cycle] under [Best_responses] is a best-response cycle
    (refutes FIPG); [`Acyclic] proves every improving-move sequence from
    this state terminates. *)

val is_fipg_from :
  ?max_states:int -> Model.t -> Graph.t -> [ `Yes | `No | `Truncated ]
(** Whether every sequence of improving moves from the state terminates —
    [find_cycle] with [All_improving], repackaged. *)
