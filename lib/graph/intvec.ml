(* Flat off-heap int vector: the storage type behind the CSR adjacency,
   the BFS workspaces, and the cached distance tables.  Bigarrays keep the
   10k-agent arena out of the OCaml major heap — the GC never marks or
   moves these words, so resident distance tables cost nothing per minor
   collection and the visit loops read/write raw memory.

   The unsafe accessors are for validated hot kernels only: every index
   fed to them is produced by a loop already bounded by [dim] (or by the
   CSR offsets, themselves invariant-checked).  Everything else goes
   through the bounds-checked operators. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t =
  if n < 0 then invalid_arg "Intvec.create: negative size";
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make n x =
  let v = create n in
  Bigarray.Array1.fill v x;
  v

(* Primitives, not [let] wrappers: see the interface for why. *)
external dim : t -> int = "%caml_ba_dim_1"
external get : t -> int -> int = "%caml_ba_ref_1"
external set : t -> int -> int -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> int = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"
let fill (v : t) x = Bigarray.Array1.fill v x

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 then invalid_arg "Intvec.blit: negative length";
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src src_pos len)
      (Bigarray.Array1.sub dst dst_pos len)

let copy (v : t) =
  let fresh = create (dim v) in
  Bigarray.Array1.blit v fresh;
  fresh

let of_array (a : int array) =
  let v = create (Array.length a) in
  Array.iteri (fun i x -> Bigarray.Array1.set v i x) a;
  v

let to_array (v : t) = Array.init (dim v) (fun i -> Bigarray.Array1.get v i)

let equal (a : t) (b : t) =
  dim a = dim b
  &&
  let ok = ref true in
  let i = ref 0 in
  let n = dim a in
  while !ok && !i < n do
    if Bigarray.Array1.get a !i <> Bigarray.Array1.get b !i then ok := false;
    incr i
  done;
  !ok

(* Resident size in bytes: one word per element, header-free (the payload
   lives outside the OCaml heap; the proxy record is negligible). *)
let bytes (v : t) = dim v * (Sys.word_size / 8)
