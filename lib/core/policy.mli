(** Move policies: who moves next.

    A move policy picks the moving agent among the unhappy agents of the
    current state; it never dictates which move that agent performs
    (Sec. 1.1 — "we do not consider such strong policies").  The paper's
    experiments use {!Max_cost} and {!Random_unhappy}; {!Adversarial} lets
    the theory gadgets model a worst-case scheduler, and exhausting every
    adversarial choice is how non-convergence "for every policy" is
    verified. *)

type t =
  | Max_cost
      (** The highest-cost unhappy agent moves; ties are broken uniformly
          at random (the paper checks agents in descending cost order). *)
  | Random_unhappy
      (** A uniformly random unhappy agent moves — the paper's random
          policy. *)
  | Round_robin
      (** Agents are probed cyclically starting after the last mover; the
          first unhappy one moves.  Deterministic fairness baseline. *)
  | Adversarial of (Graph.t -> int list -> int option)
      (** [f state unhappy] picks any member of [unhappy] (or [None] to
          abort the process).  [unhappy] is sorted ascending. *)

val select :
  t ->
  rng:Random.State.t ->
  ws:Paths.Workspace.t ->
  Model.t ->
  Graph.t ->
  last:int option ->
  int option
(** The moving agent for the current state, or [None] if every agent is
    happy (the process has converged) — except under [Adversarial], where
    [None] is whatever the scheduler returned. *)

val select_fast :
  t ->
  rng:Random.State.t ->
  ctx:Response.Fast.ctx ->
  witness:Witness.t ->
  ?domains:int ->
  Model.t ->
  Graph.t ->
  last:int option ->
  int option
(** Same agent, same RNG draws as {!select}, served by the fast path:
    unhappiness probes go through the witness cache and agent costs come
    from the context's distance tables.  The engine takes it for every
    policy but {!Max_cost}, which {!select_sublinear} serves; under
    {!Max_cost} it stays the full-scan reference the cost board's probe
    order is tested against.  [domains] is for [benchmark/replica.ml]
    until ROADMAP item 1b.
    @raise Invalid_argument if [domains] is not [1]. *)

val select_sublinear :
  t ->
  rng:Random.State.t ->
  ctx:Response.Fast.ctx ->
  witness:Witness.t ->
  board:Costboard.t ->
  Model.t ->
  Graph.t ->
  last:int option ->
  int option
(** Same agent, same RNG draws as {!select_fast}, with the {!Max_cost}
    cost scan + sort replaced by a walk of the bucketed cost board the
    engine maintains from the distance cache's dirty sets.  The board must
    be {!Costboard.complete} and hold every agent's current
    {!Ncg_game.Response.Fast.cost_key} — the engine's refresh-then-drain
    discipline guarantees it.  Policies other than [Max_cost] fall through
    to the shared probe skeleton unchanged. *)
