(** Shortest-path machinery for ownership graphs.

    All game costs in this library reduce to single-source BFS: the SUM
    distance-cost of an agent is the total distance to all vertices, the MAX
    distance-cost is the eccentricity, and a disconnected network costs
    infinity.  [profile] computes all three quantities in one pass; the
    {!Workspace} variant reuses scratch buffers so the inner loop of the
    dynamics engine allocates nothing. *)

type profile = {
  reached : int;  (** number of vertices reachable from the source,
                      including the source itself *)
  sum : int;  (** sum of distances to reached vertices *)
  ecc : int;  (** max distance to a reached vertex; 0 for a lone vertex *)
}

val profile : Graph.t -> int -> profile
(** BFS from one source.  [reached < Graph.n g] signals disconnection. *)

val distances : Graph.t -> int -> int array
(** [distances g u].(v) is [d_G(u, v)], or [-1] if unreachable. *)

val distance : Graph.t -> int -> int -> int
(** Pairwise distance, [-1] if unreachable. *)

val all_pairs : Graph.t -> int array array
(** [n] BFS passes; [-1] marks unreachable pairs. *)

val is_connected : Graph.t -> bool

val eccentricities : Graph.t -> int array option
(** Per-vertex eccentricity; [None] if the graph is disconnected. *)

val diameter : Graph.t -> int option
(** [None] if disconnected.  The diameter of a single vertex is 0. *)

val radius : Graph.t -> int option

val center : Graph.t -> int list
(** Vertices of minimum eccentricity ({i 1-center} vertices, used by the
    best-swap characterisation of Observation 2.13).  Empty if the graph is
    disconnected. *)

val components : Graph.t -> int list list
(** Connected components, each sorted ascending, ordered by smallest
    member. *)

(** Allocation-free BFS for hot loops.  A workspace is single-threaded
    scratch state; create one per domain. *)
module Workspace : sig
  type t

  val create : int -> t
  (** [create max_n] serves any graph with at most [max_n] vertices. *)

  val profile : t -> Graph.t -> int -> profile
  (** Same result as {!val:Paths.profile} without allocating. *)

  val profile_within : t -> Graph.t -> int -> (int -> bool) -> profile
  (** [profile_within ws g u keep] restricts the BFS to the vertex-induced
      subgraph on [{ v | keep v }]; [u] itself must satisfy [keep].  Used to
      evaluate median/center queries on [G - S] without rebuilding the
      graph. *)

  type bound =
    | Sum_at_most of int
        (** give up once the partial distance sum exceeds the cutoff *)
    | Ecc_at_most of int
        (** give up once any vertex lies beyond the cutoff depth *)

  val profile_bounded : t -> Graph.t -> int -> bound -> profile option
  (** [profile_bounded ws g u bound] is [Some p] with [p] exactly equal to
      [profile ws g u] whenever the bounded quantity stays within its
      cutoff, and [None] as soon as the monotone partial value exceeds it —
      which proves the exact value would too.  A disconnected source can
      still complete within the cutoff; the caller must inspect
      [p.reached].  The fast dynamics engine uses this to discard candidate
      moves that provably cannot beat the best response found so far. *)

  val distances : t -> Graph.t -> int -> int array
  (** Same result as {!val:Paths.distances}, using the workspace queue
      instead of a [Queue.t]; only the result array is allocated. *)

  val distances_into : t -> Graph.t -> int -> Intvec.t -> unit
  (** [distances_into ws g u dst] fills [dst.(v)] with [d_G(u, v)] ([-1] if
      unreachable) for [v < Graph.n g], allocating nothing.  [dst] must have
      at least [Graph.n g] elements.  This is the kernel the distance cache
      uses to (re)fill resident tables without an intermediate array. *)

  val distance : t -> Graph.t -> int -> int -> int
  (** Same result as {!val:Paths.distance} without allocating: stamped BFS
      with early exit once the target is reached. *)

  val profile_with_edge :
    t -> Graph.t -> Intvec.t -> reached:int -> sum:int -> hist:int array ->
    int -> profile
  (** [profile_with_edge ws g base ~reached ~sum ~hist y] is the profile of
      [s] once the edge [{s, y}] is added, where [base.(v)] holds [s]'s
      distances ([-1] = unreachable) in [g] or in [g] minus one edge at
      [s], and [reached], [sum] and [hist] (indexed by level, length
      eccentricity + 1) are [base]'s aggregates.  Exact: equal to
      {!val:profile} of [s] in the edited graph.  A BFS from [y] in
      [g - s] visits only the vertices the new edge brings strictly
      closer, so the cost is proportional to that region; [g] is not
      modified and nothing is allocated.  [y] adjacent to [s] in [base]'s
      graph, or [y = s], returns [base]'s own profile. *)

  val row : t -> int -> Intvec.t
  (** [row ws i] is the [i]-th scratch row (length [max_n]), allocated on
      first use and handed to every later caller of the same index:
      reusable storage for callers that hold several distance rows at
      once, such as a best-response scan's per-edge removal rows. *)
end
