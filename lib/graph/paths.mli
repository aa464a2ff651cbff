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

  val profile_with_edge :
    t -> Graph.t -> Intvec.t -> reached:int -> sum:int -> hist:int array ->
    ?bound:bound -> int -> profile option
  (** [profile_with_edge ws g base ~reached ~sum ~hist y] is [Some] the
      profile of [s] once the edge [{s, y}] is added, where [base.(v)]
      holds [s]'s distances ([-1] = unreachable) in [g] or in [g] minus
      one edge at [s], and [reached], [sum] and [hist] (indexed by level,
      length eccentricity + 1) are [base]'s aggregates.  Exact: equal to
      {!val:profile} of [s] in the edited graph.  A BFS from [y] in
      [g - s] visits only the vertices the new edge brings strictly
      closer, so the cost is proportional to that region; [g] is not
      modified and nothing is allocated.  [y] adjacent to [s] in [base]'s
      graph, or [y = s], returns [base]'s own profile.

      With [~bound:(Sum_at_most b)] the BFS may stop early with [None],
      which proves the exact sum exceeds [b]: at each BFS level it bounds
      the gain still to come from [hist] and the level's degree sum.  The
      bound is tried only when [base] reaches every vertex of [g] and the
      sum after [y]'s own gain still exceeds [b].  With
      [~bound:(Ecc_at_most b)] it returns [None] before any BFS when
      [base]'s eccentricity less [base.(y) - 1] exceeds [b]: the new edge
      shortens no distance by more than that, so the exact eccentricity
      exceeds [b] too.  Every [Some p] is the exact profile, whether or
      not it meets the bound. *)

  val row : t -> int -> Intvec.t
  (** [row ws i] is the [i]-th scratch row (length [max_n]), allocated on
      first use and handed to every later caller of the same index:
      reusable storage for callers that hold several distance rows at
      once, such as a best-response scan's per-edge removal rows. *)
end

(** Bit-parallel BFS: the profiles of up to {!Multi.width} sources in one
    pass over the graph per level (Then et al., "The More the Merrier:
    Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014).  Bit [i]
    of a vertex's word is source [i]; a level runs top-down from the
    frontier while the frontier has under a quarter of the edges at the
    vertices some source has not reached, and bottom-up over those
    vertices after.  The distance cache answers cost-board queries for
    agents without a resident table with it. *)
module Multi : sig
  type t

  val width : int
  (** [Sys.int_size] (63 on 64-bit hosts): one source per bit of an
      OCaml int. *)

  val create : int -> t
  (** [create max_n] serves any graph with at most [max_n] vertices.  It
      allocates three [max_n]-word rows and two vertex lists — create one
      per long-lived owner, not per query. *)

  val profiles : t -> Graph.t -> int array -> profile array
  (** [profiles t g sources] is [Array.map (profile g) sources], from one
      traversal.  Sources may repeat.
      @raise Invalid_argument if [sources] is empty, longer than {!width},
      or names a vertex outside [g]. *)
end
