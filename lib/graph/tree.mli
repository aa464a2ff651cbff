(** Tree predicates and the stable-tree classification used in Section 2.

    Alon et al. (SPAA'10) show that the only stable trees of the MAX Swap
    Game are stars and double stars, and that stable trees of the SUM
    version have diameter at most 2; the convergence proofs of Kawald &
    Lenzner lean on these shapes.  This module recognises them. *)

val is_tree : Graph.t -> bool
(** Connected with exactly [n - 1] edges.  The empty graph and the single
    vertex are trees. *)

val is_forest : Graph.t -> bool

val is_star : Graph.t -> bool
(** One center adjacent to all other vertices.  Graphs with [n <= 2] count
    as stars. *)

val is_double_star : Graph.t -> bool
(** Two adjacent centers, every other vertex a leaf on one of them — the
    diameter-3 stable trees of the MAX-SG.  A star is {e not} a double
    star. *)

val leaves : Graph.t -> int list
(** Vertices of degree 1. *)

val longest_path_length : Graph.t -> int -> int
(** [longest_path_length g v] is the eccentricity of [v] — the length of a
    {e longest path} of agent [v] in the paper's Definition 2.7 (on a
    connected graph every longest shortest path from [v] realises it).
    @raise Invalid_argument if [g] is disconnected. *)

val longest_path_targets : Graph.t -> int -> int list
(** The vertices at maximum distance from [v]. *)

val path_between : Graph.t -> int -> int -> int list option
(** Vertices of one shortest path from [u] to [v] inclusive, or [None] if
    disconnected.  On a tree this is {e the} unique path. *)
