(** Flat compressed-sparse-row adjacency with single-edge patches.

    The hot-loop view of {!Graph.t}: row [u] is the slice
    [offsets.(u) .. offsets.(u+1) - 1] of [targets], sorted ascending so that
    enumeration order is a function of the edge set alone (the differential
    oracle depends on this).  {!Graph} maintains one of these incrementally
    under every mutation — including the {!Graph.Unsafe} corruptions, which
    may leave rows asymmetric — so BFS kernels iterate two int arrays instead
    of chasing list cells.

    Directed/asymmetric by design: [insert t u v] touches row [u] only; the
    caller inserts both directions for an undirected edge. *)

type t

val create : int -> t
(** Empty adjacency on [n] vertices. @raise Invalid_argument if [n < 0]. *)

val n : t -> int
val degree : t -> int -> int
(** Row length — O(1). *)

val offsets : t -> Intvec.t
(** Borrowed view, valid until the next mutation.  Length [n + 1]; do not
    write. *)

val targets : t -> Intvec.t
(** Borrowed view, valid until the next mutation.  Only the first
    [offsets.(n)] entries are meaningful; the array may be replaced (not
    just overwritten) by an [insert], so re-fetch after mutating. *)

val mem : t -> int -> int -> bool
(** Binary search in row [u]. *)

val insert : t -> int -> int -> unit
(** Insert [v] into row [u], keeping the row sorted.  No duplicate check —
    callers guard, as the list-based adjacency's callers did. *)

val remove : t -> int -> int -> bool
(** Remove [v] from row [u]; [false] (and no change) if absent. *)

val iter_row : (int -> unit) -> t -> int -> unit
val fold_row : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

val row_list : t -> int -> int list
(** Row [u] as a fresh sorted list (for the non-hot {!Graph.neighbors}). *)

val copy : t -> t
