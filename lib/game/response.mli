(** Improving moves and best responses.

    An agent is {e unhappy} in a state if some admissible strategy change
    strictly decreases her cost; a {e best response} is an admissible change
    achieving the largest decrease (Sec. 1.1).  This module enumerates the
    admissible moves of each game type, evaluates them by applying them
    transiently to the network, and — for the bilateral game — filters out
    moves blocked by a new neighbor who would not consent (Sec. 5).

    Best responses of the Swap, Asymmetric Swap and Greedy Buy games are
    polynomial (checked edge by edge, as in the paper's experiments).  The
    Buy Game and the bilateral game have exponential strategy spaces and
    computing a best response in the BG is NP-hard; the exhaustive
    enumeration here is intended for the paper's gadgets (≤ ~20 candidate
    partners) and refuses larger inputs rather than silently hanging. *)

type evaluated = {
  move : Move.t;
  before : Cost.t;  (** the moving agent's cost in the current state *)
  after : Cost.t;  (** her cost once the move is applied *)
}

val exhaustive_limit : int
(** Maximum number of candidate partners for the exponential games (20). *)

val candidates : Model.t -> Graph.t -> int -> Move.t Seq.t
(** All admissible strategy changes of one agent in the current state, in a
    deterministic order.  Swaps never target the agent or an existing
    neighbor; buys respect the host graph.
    @raise Invalid_argument for [Bg]/[Bilateral] beyond
    {!exhaustive_limit}. *)

val multi_swap_candidates : Model.t -> Graph.t -> int -> Move.t Seq.t
(** [Sg]/[Asg] only: all strategies replacing any number of swappable edges
    at once ([|S*| = |S|], arbitrary intersection; own edges in the ASG,
    all incident edges in the SG) — used to verify the paper's "even with
    multi-swaps" claims.  Same exhaustive limit. *)

val evaluate : Model.t -> Graph.t -> Move.t -> evaluated

val feasible : Model.t -> Graph.t -> Move.t -> bool
(** Bilateral consent: every {e new} neighbor's cost must not increase
    ([c_G(v) >= c_G'(v)], Sec. 5).  Always [true] for the other games. *)

val blockers : Model.t -> Graph.t -> Move.t -> int list
(** The new neighbors who would block the move (bilateral only; empty
    otherwise). *)

val improving_moves :
  ?ws:Paths.Workspace.t -> Model.t -> Graph.t -> int -> evaluated list
(** All feasible moves of the agent that strictly decrease her cost. *)

val least_cost : Model.t -> evaluated list -> evaluated list
(** The entries of least [after] cost (all ties), in order and physically
    shared with the input: applied to one agent's {!improving_moves}, her
    best responses. *)

val best_moves :
  ?ws:Paths.Workspace.t -> Model.t -> Graph.t -> int -> evaluated list
(** [least_cost] of {!improving_moves}: the improving moves of minimum
    resulting cost (all ties). *)

val is_unhappy : ?ws:Paths.Workspace.t -> Model.t -> Graph.t -> int -> bool
(** Early-exits on the first improving move found. *)

val unhappy_agents : Model.t -> Graph.t -> int list

val is_stable : Model.t -> Graph.t -> bool
(** No agent has a feasible improving move — a pure Nash equilibrium of the
    underlying game (pairwise stability for the bilateral version). *)

val admissible : Model.t -> Graph.t -> Move.t -> bool
(** Membership in the {!candidates} enumeration of the current state: true
    iff enumerating the move's agent now would generate this move.  Used to
    re-verify cached witness moves after the network has changed. *)

(** Pruned, cache-backed evaluation with results bit-identical to the
    naive functions above — [improving_moves], [best_moves] and
    [is_unhappy] return exactly the same lists and booleans, at a fraction
    of the BFS work.  A context reads single-source distance tables of the
    {e current} network from a {!Distcache} and is only valid until the
    next applied move: the engine creates one per step over the cache it
    patches after every move.  Buys and swaps are scored from the
    mover's own rows alone, by a BFS from the new edge's far end through
    the vertices it brings closer ({!Paths.Workspace.profile_with_edge}),
    so no scan reads or fills a target's row.  That BFS is given the
    candidate's admission budget: under SUM it stops once the candidate
    provably misses it, and under MAX it does not start when no distance
    can fall far enough.  See DESIGN.md §9 for the soundness argument. *)
module Fast : sig
  type ctx

  val of_cache : Paths.Workspace.t -> Model.t -> Graph.t -> Distcache.t -> ctx
  (** A context over [g] whose tables live in the cache: tables the cache
      kept or repaired across steps are reused instead of refilled, and
      missing ones are filled into it.  The context borrows the workspace
      for its BFS scratch space and its scratch rows (one per removable
      edge of the scanned agent).  Sound only while the cache's tables are
      exact for [g], and [g] must not change (other than transiently
      through this module) while the context is in use — the engine
      patches the cache after every committed move.  A fresh
      [Distcache.create n] serves a one-off context.
      @raise Invalid_argument on a cache/graph size mismatch. *)

  val set_prefilter: ctx -> bool -> unit
  (** Accepts only [true], for [benchmark/replica.ml] until ROADMAP item 1b.
      Every scan runs its admission bounds (the kernel's budget and the
      buy-profile bound on swaps), which reject only candidates whose
      exact profile provably misses the admission budget, so the admitted
      set is the unpruned one.
      @raise Invalid_argument on [false]. *)

  val cost : ctx -> int -> Cost.t
  (** Same value as [Agents.cost], served from [u]'s cached table, which
      is filled if absent (the mover's scan reads that row anyway). *)

  val cost_key : ctx -> int -> int
  (** [cost ctx u] as the cross-multiplied integer key [e*p + d*q] that
      {!Cost.compare} orders finite costs by, with [max_int] standing in
      for [Disconnected] (above every finite key, as [Cost.compare] places
      it).  The bucketed max-cost selection sorts on these keys.  Unlike
      {!cost} it fills no table: an agent without a resident one is
      answered by {!Distcache.batch_profile}. *)

  type row_stats = {
    rs_reached : int;  (** vertices the row reaches *)
    rs_sum : int;  (** the sum of their distances *)
    rs_hist : int array;
        (** [rs_hist.(l)] vertices at distance [l]; length eccentricity + 1 *)
  }

  val minus_row : ctx -> int -> int -> Intvec.t * row_stats
  (** [minus_row ctx u x] for an edge [{u, x}]: the row [d_{G-ux}(u, .)]
      on which a scan of [u] scores the deletion of the edge and every
      swap removing it, with the row's stats.  It is [u]'s table (filled
      if absent) patched by {!Distcache.without_edge}; the graph and the
      cache's other books are left as they are.  The row is workspace
      scratch, overwritten by the next scan. *)

  val is_unhappy : ctx -> int -> bool
  (** Same boolean as {!val:Response.is_unhappy}. *)

  val find_improving : ctx -> int -> evaluated option
  (** The first improving move in enumeration order, exactly evaluated —
      the witness cached by the engine between steps. *)

  val improving_moves : ctx -> int -> evaluated list
  (** Same list as {!val:Response.improving_moves} (no multi-swaps). *)

  val best_moves : ?prior:Move.t -> ctx -> int -> evaluated list
  (** Same list as {!val:Response.best_moves}.  [prior] seeds the pruning
      threshold with a re-verified witness move; it never changes the
      result, only how much work is skipped. *)

  val revalidate : ctx -> Move.t -> evaluated option
  (** [Some e] iff the move is currently admissible, feasible and strictly
      improving for its agent — the one-evaluation witness check. *)

  (** {2 Fault-injection hooks (tests only)}

      The shadow sentinel (see {!Ncg_core.Sentinel}) claims to catch a
      diverging fast path at run time; these hooks let the chaos suites
      break the fast path on purpose to prove it. *)

  val chaos_corrupt_best_moves : after:int -> unit
  (** Arm the hook: the [after]-th subsequent {!best_moves} result (0 =
      the very next call) is corrupted — a tie is hidden, or a singleton
      duplicated — and the hook disarms itself. *)

  val chaos_reset : unit -> unit
  (** Disarm without firing. *)
end
