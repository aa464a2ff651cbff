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

    One breadth-first walk answers all three.  States are exact labelled
    networks (ownership included when the game uses it), admitted in BFS
    order up to [max_states]; hitting the bound yields [truncated] /
    [`Truncated] answers rather than silent lies.  The walk records each
    admitted state's successor ids and the state whose arc admitted it in
    flat int buffers, and the cycle search runs on those ids alone. *)

type successor_rule =
  | All_improving  (** arcs = every feasible improving move of every agent *)
  | Best_responses  (** arcs = every best response of every agent *)

type cycle = { start : Graph.t; moves : Move.t list }
(** A state together with moves that return to it exactly. *)

type exploration = {
  explored : int;  (** states admitted *)
  stable : Graph.t list;
      (** the admitted stable states, one network each, in BFS order —
          what equilibrium classification ({!Classify.classify_sink}) runs
          on *)
  cycle : cycle option;
      (** a directed cycle among the admitted states, if they hold one.
          Under [All_improving] it refutes the finite improvement property,
          under [Best_responses] it is a best-response cycle; [None]
          without [truncated] proves every sequence of moves from the
          initial network terminates. *)
  truncated : bool;  (** the budget kept some reachable state out *)
}

val explore :
  ?max_states:int ->
  ?rule:successor_rule ->
  Model.t ->
  Graph.t ->
  exploration
(** The whole walk: the breadth-first closure of the reachable region,
    then an iterative DFS for a cycle over its recorded ids, so deep
    regions cannot overflow the call stack.  [max_states] defaults to
    100_000; [rule] to [All_improving]. *)

val reachable_stable_state :
  ?max_states:int ->
  ?rule:successor_rule ->
  Model.t ->
  Graph.t ->
  [ `Found of Graph.t | `None | `Truncated ]
(** The same walk, stopped at the first stable state it expands.  [`None]
    proves the game is not weakly acyclic from this state (not BR-weakly-
    acyclic under [Best_responses]). *)
