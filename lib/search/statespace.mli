(** Exhaustive exploration of the improving-move state space.

    The states of a network creation process form a directed graph: one node
    per network, one arc per feasible improving move.  An arc is {e tagged}
    when its move is one of its agent's best responses, so the tagged arcs
    form the best-response graph.  Exhaustively exploring the region
    reachable from the root networks answers the classification questions
    of Section 1.2 {e for those roots}:

    - a reachable stable state exists iff the game is weakly acyclic from
      the roots; one at the end of a path of tagged arcs, iff it is
      BR-weakly-acyclic;
    - no reachable stable state means {e no} sequence of improving moves
      ever stabilises — the strong non-convergence of Corollaries 3.6/4.2;
    - a directed cycle is an improving-move cycle (a best-response cycle
      under [Best_responses]), and its absence from every state proves the
      finite improvement property on the explored region.

    One breadth-first walk answers all three and scores each state's moves
    once.  It starts from the roots in turn, taking the next root only when
    the regions of the earlier ones are closed, so a sweep never holds its
    roots in memory.  States are exact labelled networks (ownership
    included when the game uses it), admitted in BFS order up to
    [max_states]; hitting the bound yields [truncated] answers rather than
    silent lies.  The walk records each admitted state's tagged successor
    ids and the state whose arc admitted it in flat int buffers, and the
    searches for a cycle and for a tagged path to a sink run on those ids
    alone. *)

type successor_rule =
  | All_improving  (** arcs = every feasible improving move of every agent *)
  | Best_responses  (** arcs = the tagged ones only: every best response *)

type cycle = { start : Graph.t; moves : Move.t list }
(** A state together with moves that return to it exactly. *)

type exploration = {
  explored : int;  (** states admitted *)
  stable : Graph.t list;
      (** the admitted stable states, one network each, in BFS order —
          what equilibrium classification ({!Classify.classify_sink}) runs
          on *)
  best_response_stable : bool;
      (** a path of tagged arcs leads from a root to a state of [stable].
          Exact when not [truncated]; on a truncated region [true] is
          still a real best-response path, while [false] proves nothing.
          Under [Best_responses] it is [stable <> []]. *)
  cycle : cycle option;
      (** a directed cycle among the admitted states, if they hold one.
          Under [All_improving] it refutes the finite improvement property,
          under [Best_responses] it is a best-response cycle; [None]
          without [truncated] proves every sequence of moves from the
          roots terminates. *)
  truncated : bool;  (** the budget kept some reachable state out *)
}

val explore :
  ?max_states:int ->
  ?rule:successor_rule ->
  Model.t ->
  Graph.t Seq.t ->
  exploration
(** The whole walk: the breadth-first closure of the region reachable from
    the roots, then an iterative DFS for a cycle over its recorded ids,
    started at every root, so deep regions cannot overflow the call stack.
    The roots are read once, lazily.  A cycle is rebuilt from the root its
    BFS parents lead back to, which reads the sequence a second time up to
    that root, so it must be persistent ([Seq.return g] and
    {!Gen.unit_budget_networks} are).  With one root the ids and answers
    are those of a walk from that network alone.  [max_states] defaults to
    100_000; [rule] to [All_improving]. *)
