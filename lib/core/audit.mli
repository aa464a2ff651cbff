(** Invariant auditing for the dynamics engine.

    Long sweeps must not trust their own machinery blindly: a bug in move
    enumeration, cost evaluation or the graph substrate would silently skew
    every statistic built on top.  The auditor re-checks, independently of
    the code that produced the state, that a network is well formed and that
    each applied step honoured the game's contracts.  Violations are typed
    values — the engine surfaces them as a {!Engine.stop_reason} instead of
    crashing, so one corrupted trial never takes down a 10k-trial sweep.

    The auditor is itself tested by {!Chaos}, which injects each fault class
    deliberately and asserts detection. *)

type level =
  | Off  (** no checking (the pre-robustness behavior, minus the crashes) *)
  | Final  (** audit the final network once, when the run stops *)
  | Sampled of int  (** audit the network every [k] steps, plus finally *)
  | Every_step  (** audit after every applied move, plus finally *)

type kind =
  | Asymmetric_adjacency
      (** a vertex lists a neighbor that does not list it back *)
  | Self_loop
  | Bad_edge_count  (** degree sum disagrees with [2 * Graph.m] *)
  | Ownerless_edge  (** neither endpoint owns the edge *)
  | Doubly_owned_edge  (** both endpoints own the edge *)
  | Disconnected
      (** the network lost connectivity during a run that started
          connected — impossible under improving moves *)
  | Non_improving_move
      (** an applied move did not strictly lower the mover's cost *)
  | Happy_agent_selected
      (** the policy selected an agent with no improving move *)
  | Stale_cost_key
      (** the cost board holds a key that a fresh BFS cost disagrees
          with — a dirty-set or board-refresh bug *)

type violation = {
  kind : kind;
  step : int;  (** steps completed when the violation was found *)
  subject : int option;  (** offending vertex/agent, when there is one *)
  detail : string;  (** human-readable specifics *)
}

val kind_label : kind -> string
(** Stable one-token tag, e.g. ["half-edge"]; inverse of {!kind_of_label}. *)

val kind_of_label : string -> kind option

val violation_to_string : violation -> string

val check_graph :
  ?require_connected:bool -> ?step:int -> Model.t -> Graph.t ->
  violation list
(** Structural audit of one network: symmetric adjacency, no self-loops,
    consistent edge count, and — when [Model.uses_ownership] — exactly one
    owner per edge.  [require_connected] (default [false]) additionally
    demands connectivity.  Returns every violation found, deterministically
    ordered; [] means the network is well formed.  [step] (default [-1])
    is stamped into the violations. *)

val check_move :
  step:int -> Model.t -> mover:int -> before:Cost.t -> after:Cost.t ->
  violation option
(** Step-level contract: the applied move must have strictly lowered the
    mover's cost under the model's unit price. *)

val check_board :
  step:int -> ws:Paths.Workspace.t -> Model.t -> Graph.t -> Costboard.t ->
  violation option
(** Board audit: every agent's {!Costboard.key} must equal its fresh
    {!Agents.cost_ws} cost, cross-multiplied as the board keys it
    ([e*p + d*q] for unit price [p/q], [max_int] for Disconnected).
    Returns the lowest agent whose key is stale or missing. *)

val should_check : level -> int -> bool
(** [should_check level step] — whether a mid-run graph audit is due after
    [step] applied moves.  [Final] and [Off] never audit mid-run. *)
