(** Undirected graphs with per-edge ownership.

    This is the network substrate of every game in the library.  A network is
    a simple undirected graph [G = (V, E, o)] on vertices [0 .. n-1] together
    with an ownership function [o : E -> V] mapping each edge to one of its
    endpoints (Kawald & Lenzner, Sec. 1.1).  Ownership is irrelevant in the
    Swap Game but decides who may move an edge in the asymmetric games, and
    who pays for it in the buy games.

    The structure is mutable — the dynamics engine applies and undoes tens of
    thousands of single-edge moves — and [copy] provides snapshots.  All
    operations validate their arguments; the invariants (no self-loops, no
    multi-edges, owner is an endpoint) can never be broken through this
    interface. *)

type t

val create : int -> t
(** [create n] is the empty graph on vertices [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val add_edge : t -> owner:int -> int -> int -> unit
(** [add_edge g ~owner u v] inserts the undirected edge [{u, v}] owned by
    [owner].
    @raise Invalid_argument if [u = v], if the edge already exists, if a
    vertex is out of range, or if [owner] is neither [u] nor [v]. *)

val remove_edge : t -> int -> int -> unit
(** @raise Invalid_argument if the edge is absent. *)

val has_edge : t -> int -> int -> bool

val owner : t -> int -> int -> int
(** [owner g u v] is the endpoint that owns edge [{u, v}].
    @raise Invalid_argument if the edge is absent. *)

val owns : t -> int -> int -> bool
(** [owns g u v] is [true] iff the edge [{u, v}] exists and is owned by
    [u]. *)

val neighbors : t -> int -> int list
(** All neighbors of a vertex, sorted ascending.  The order is a function
    of the edge set alone — never of the mutation history — so candidate
    enumerations are identical across engines that mutate the graph
    transiently in different ways (the differential suite relies on
    this). *)

val owned_neighbors : t -> int -> int list
(** [owned_neighbors g u] are the vertices [v] with [owns g u v] — the
    current strategy of agent [u] in the asymmetric games.  Sorted
    ascending, like {!neighbors}. *)

val degree : t -> int -> int
(** O(1) — a CSR offsets difference. *)

val owned_degree : t -> int -> int
(** Number of owner bits set among [u]'s listed neighbors — O(1), maintained
    incrementally.  This sits in the per-candidate edge-cost formula of the
    buy games, so it must not rescan the adjacency. *)

val csr : t -> Csr.t
(** The graph's flat adjacency, maintained incrementally under every
    mutation (including the {!Unsafe} corruptions).  A borrowed read-only
    view for BFS kernels: never mutate it directly, and re-fetch
    {!Csr.targets} after any graph mutation. *)

val fold_edges : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] folds [f u v owner] over all edges with [u < v],
    in lexicographic order of [(u, v)] — O(n + m), off the adjacency
    rows. *)

val iter_edges : (int -> int -> int -> unit) -> t -> unit
(** [iter_edges f g] calls [f u v owner] for every edge with [u < v], in
    the order of {!fold_edges}. *)

val edges : t -> (int * int * int) list
(** [(u, v, owner)] triples with [u < v], sorted lexicographically. *)

val copy : t -> t
(** Independent deep copy: O(n²/8) bytes for the edge matrices plus the
    adjacency arrays. *)

val equal : t -> t -> bool
(** Exact equality: same vertex count, edge set and ownership.  (For
    equality up to relabeling see {!Canonical.isomorphism}.) *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n pairs] builds a graph where each pair [(u, v)] becomes an
    edge owned by [u] — the convention used to transcribe the paper's
    figures, where arrows point away from the owner.
    @raise Invalid_argument as {!add_edge}. *)

val of_unowned_edges : int -> (int * int) list -> t
(** Like {!of_edges} but ownership is set to the smaller endpoint; used for
    games where ownership is irrelevant (SG, bilateral). *)

val vertices : t -> int list
(** [0; 1; ...; n-1]. *)

(** Deliberate invariant breakage for fault injection.

    The normal interface validates every mutation, so a correctly working
    system can never produce an ill-formed graph.  Robustness testing needs
    exactly such graphs: the chaos harness uses these hooks to corrupt a
    network and then asserts that the invariant auditor notices.  Never call
    these outside fault-injection code — every other operation on a
    corrupted graph has undefined behavior. *)
module Unsafe : sig
  val drop_half_edge : t -> int -> int -> unit
  (** [drop_half_edge g u v] erases [v] from [u]'s adjacency only, leaving
      [v] still believing the edge exists — a dangling half-edge. *)

  val set_owner_bit : t -> int -> int -> bool -> unit
  (** Raw write to the ownership bit of the directed pair [(u, v)]; can
      make an edge ownerless or owned by both endpoints. *)

  val add_self_loop : t -> int -> unit
  (** Attaches the forbidden edge [{u, u}]. *)
end

val pp : Format.formatter -> t -> unit
(** Compact debugging form, e.g. [{n=4; 0->1 2->1 2->3}] where [a->b] means
    edge [{a, b}] owned by [a]. *)

val to_string : t -> string
