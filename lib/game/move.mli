(** Strategy changes and their (reversible) effect on a network.

    A move transforms state [G_i] into [G_{i+1}] by the strategy change of
    exactly one agent.  [apply] mutates the graph in place and returns an
    undo token, so best-response enumeration can evaluate thousands of
    candidate moves on a single graph without copying.

    [apply] checks structural well-formedness only (edges present/absent as
    required).  Game-specific legality — ownership, host-graph membership,
    bilateral consent — is enforced by {!Response}: its enumeration only
    ever produces legal moves, {!Response.admissible} re-checks a cached
    move against the current state and {!Response.feasible} checks
    bilateral consent. *)

type t =
  | Swap of { agent : int; remove : int; add : int }
      (** Replace edge [{agent, remove}] by [{agent, add}]. *)
  | Buy of { agent : int; target : int }
  | Delete of { agent : int; target : int }
  | Set_own_edges of { agent : int; targets : int list }
      (** Buy-Game strategy jump: the agent's owned edges become exactly
          the edges towards [targets]. *)
  | Set_neighbors of { agent : int; targets : int list }
      (** Bilateral strategy change: the agent's incident edges become
          exactly the edges towards [targets] (removed edges are unilateral
          deletions, added edges need the consent checked by
          {!Response.feasible}). *)

type undo

type prim = Added of int * int | Removed of int * int * int
(** The reversible single-edge primitives a move decomposes into, in
    application order.  [Removed] carries the former owner. *)

val agent : t -> int
(** The moving agent. *)

val apply : Graph.t -> t -> undo
(** Mutates the graph.  @raise Invalid_argument if the move is structurally
    impossible (e.g. swapping an absent edge or buying an existing one). *)

val apply_observed : Graph.t -> on_prim:(prim -> unit) -> t -> undo
(** Like {!apply}, but calls [on_prim] immediately after each primitive is
    applied to the graph — at that moment the graph reflects exactly the
    primitives seen so far.  The incremental distance cache patches its
    tables from this hook: each patch sees pre-primitive tables against
    post-primitive adjacency, which is what its keep/repair rules assume. *)

val touched : Graph.t -> t -> int list
(** The deduplicated endpoints of every primitive {!apply} would record for
    this move on the current (pre-move) graph.  The engine pins these
    vertices' distance tables resident across the apply so the cache's
    dirty-set classifier always sees the pre-primitive endpoint rows. *)

val undo : Graph.t -> undo -> unit
(** Restores the exact previous state, including edge ownership. *)

val with_applied : Graph.t -> t -> (Graph.t -> 'a) -> 'a
(** [with_applied g move f] applies, runs [f], undoes — exception-safe. *)

type kind = Kswap | Kbuy | Kdelete | Kjump

val kind : t -> kind
(** Coarse operation class; a [Set_*] move that happens to add exactly one
    edge still classifies as [Kjump] — use {!classify_effect} for the
    paper's operation statistics. *)

val classify_effect : Graph.t -> t -> kind
(** The net effect of the move on the current graph: one edge added =
    [Kbuy], one removed = [Kdelete], one traded = [Kswap], anything else
    [Kjump].  This is what Section 4.2.2's deletion/swap/addition phase
    statistics count. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
