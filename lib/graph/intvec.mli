(** Off-heap int vector (bigarray) backing the CSR adjacency, the BFS
    workspaces, and the cached distance tables.

    At n = 10,000 the distance cache holds hundreds of n-element tables;
    storing them as bigarrays keeps those words invisible to the GC (no
    marking cost, no compaction churn) and lets the BFS kernels run
    allocation-free over raw memory.  [unsafe_get]/[unsafe_set] skip bounds
    checks and are reserved for kernels whose indices are already validated
    by construction.

    The element accessors are declared [external] over the bigarray
    primitives, here and in the implementation, and must stay so.  Dune's
    default (dev) profile compiles every module with [-opaque], which
    hides a [let] wrapper's body from other modules: each
    [Intvec.unsafe_get] in {!Paths}, {!Csr}, [Distcache] and [Response]
    would then be an out-of-line call through the module block.  A
    primitive declaration travels with the interface instead, and since
    {!t} is manifest (element kind and layout known at every call site),
    each access compiles to an inline int load or store under any build
    profile. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Uninitialised vector of [n] ints. @raise Invalid_argument if [n < 0]. *)

val make : int -> int -> t
(** [make n x] is a vector of [n] copies of [x]. *)

external dim : t -> int = "%caml_ba_dim_1"
external get : t -> int -> int = "%caml_ba_ref_1"
external set : t -> int -> int -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> int = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"

val fill : t -> int -> unit

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Overlap-safe copy of [len] elements (a memmove), like [Array.blit]. *)

val copy : t -> t
val of_array : int array -> t
val to_array : t -> int array

val bytes : t -> int
(** Resident payload size in bytes (one machine word per element). *)
