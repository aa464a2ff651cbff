(** Cross-step incremental cache of single-source distance tables.

    Owned by the engine and kept alive across steps: after each primitive
    edge change of a {e committed} move, {!note_added}/{!note_removed}
    either prove a cached table unchanged (keep), repair the changed region
    with a frontier-bounded incremental BFS, or fall back to a fresh scan
    when the affected set exceeds the threshold.  Tables always hold the
    exact BFS distances of the current graph — the cache changes {e when}
    distances are computed, never their values, so trajectories stay
    byte-identical to the reference engine.  See DESIGN.md §12 for the keep
    rules and the repair algorithms, §17 for the dirty-set and memory-bound
    machinery.

    Patch calls must see the graph {e after} exactly the primitive being
    noted (and the tables from before it) — the engine drives them from
    {!Move.apply_observed}.  Transient candidate evaluations never touch
    the cache.

    Tables are off-heap {!Intvec} bigarrays.  Residency is bounded by an
    optional [budget]: installing past the cap evicts the least-recently
    used unpinned table (logical clock, so arena and fresh runs evict
    identically).  Every noted primitive additionally classifies all [n]
    sources as dirty (cost profile possibly changed) or provably clean via
    the endpoint-row symmetry argument of DESIGN.md §17 — the selection
    layer re-evaluates only dirty agents. *)

type t

type stats = {
  kept : int;
  repaired : int;
  rebuilt : int;
  fills : int;
  evicted : int;
}
(** Per-table decisions: [kept] tables proved unchanged, [repaired]
    incrementally patched, [rebuilt] refreshed by a full BFS fallback,
    [fills] installed from scratch via {!set}/{!ensure}, [evicted] dropped
    by the memory bound. *)

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum. *)

type residency = {
  resident : int;  (** tables currently resident *)
  peak : int;  (** high-water resident count since create/reset *)
  budget : int option;  (** configured cap, [None] = unbounded *)
  bytes : int;  (** current resident table payload, in bytes *)
  peak_bytes : int;  (** high-water payload, in bytes *)
}

val zero_residency : residency

val create : ?threshold:int -> ?budget:int -> int -> t
(** [create n] caches up to [n] source tables.  [threshold] bounds the
    affected set a deletion repair may process before falling back to a
    fresh BFS (default [max 16 (n / 4)]).  [budget] caps resident tables
    (LRU eviction past the cap; default unbounded).
    @raise Invalid_argument if [budget < 2]. *)

val n : t -> int
val threshold : t -> int
val budget : t -> int option

val residency : t -> residency
(** Memory accounting snapshot — resident/peak counts and bytes. *)

val get : t -> int -> Intvec.t option
(** The cached table of source [v] — exact for the current graph.  The
    vector is owned by the cache: callers must not mutate it, and must not
    hold it across a later install (an eviction may recycle the buffer).
    Refreshes [v]'s LRU stamp. *)

val set : t -> int -> int array -> unit
(** Install a freshly computed table (copied into a cache-owned buffer). *)

val ensure : t -> ws:Paths.Workspace.t -> Graph.t -> int -> Intvec.t
(** The table of source [v], filling it with a fresh BFS if absent
    (counted in [fills]).  Same ownership rules as {!get}. *)

val pin : t -> int -> unit
(** Exempt [v]'s table from eviction until the matching {!unpin}.  Pins
    nest.  The engine pins a move's endpoint tables across the apply so
    the dirty-set classifier always has both pre-primitive rows. *)

val unpin : t -> int -> unit
(** @raise Invalid_argument if [v] is not pinned. *)

val profile : t -> int -> Paths.profile
(** Profile of source [v]'s table, cached until the table changes — turns
    the per-step all-agents cost scan into O(n) when tables survive.
    @raise Invalid_argument if [v] has no table. *)

val sum_profile : t -> int -> int * int
(** [(reached, sum)] of source [v]'s table.  Unlike {!profile} these two
    aggregates are maintained {e incrementally} through repairs — every
    repair reads the entry it overwrites, so the deltas cost O(changed) —
    and survive the full profile's invalidation (a repair cannot patch the
    eccentricity in O(changed)).  The sum-distance cost paths and the cost
    board read this instead of rescanning O(n) per repaired row.
    @raise Invalid_argument if [v] has no table. *)

val note_added : t -> Graph.t -> int -> int -> unit
(** [note_added t g a b]: the edge [{a, b}] was just inserted into [g];
    patch every resident table and fold the possibly-changed sources into
    the dirty set. *)

val note_removed : t -> Graph.t -> int -> int -> unit
(** [note_removed t g a b]: the edge [{a, b}] was just removed from [g]. *)

(** {2 Dirty set}

    Accumulated across the primitives of one applied move; the engine
    clears it before the apply and drains it after, re-evaluating exactly
    the agents whose cost profile could have changed.  When an endpoint row
    needed for classification is not resident the whole population is
    marked dirty — always sound, never silent. *)

val clear_dirty : t -> unit
val mark_dirty : t -> int -> unit
val mark_all_dirty : t -> unit

val dirty_all : t -> bool
(** [true] when the conservative all-dirty fallback fired. *)

val dirty_count : t -> int
(** Number of dirty agents ([n] when {!dirty_all}). *)

val iter_dirty : (int -> unit) -> t -> unit
(** Iterate the dirty agents (all of [0 .. n-1] when {!dirty_all}). *)

val stats : t -> stats

val reset : t -> unit
(** Return the cache to its freshly-created state — tables and profiles
    dropped (buffers recycled), residency and stat counters zeroed — so an
    {!Engine.Arena} can hand it to the next trial with per-trial [stats]
    identical to a solo run's. *)
