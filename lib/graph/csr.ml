(* Flat compressed-sparse-row adjacency maintained incrementally under
   single-edge patches.  Row [u] is the slice [offsets.(u) .. offsets.(u+1)-1]
   of [targets], kept sorted ascending — the same mutation-history-free
   enumeration order the list-based adjacency guaranteed.  A patch shifts the
   tail of [targets] with one blit and bumps [n - u] offsets; at the scale of
   this library that is far cheaper than the allocation and pointer chasing
   it replaces in every BFS.

   Both arrays live in bigarrays (see {!Intvec}): the 10k-agent arena keeps
   its adjacency off the OCaml heap, and the BFS kernels in {!Paths} and
   {!Distcache} run over raw memory with unsafe reads whose indices are
   bounded by the offsets invariant. *)

type t = {
  n : int;
  offsets : Intvec.t; (* length n + 1; offsets.(n) = total half-edges *)
  mutable targets : Intvec.t; (* capacity >= offsets.(n); tail is scratch *)
}

let create n =
  if n < 0 then invalid_arg "Csr.create: negative size";
  { n; offsets = Intvec.make (n + 1) 0; targets = Intvec.make (max 8 n) 0 }

let n t = t.n
let degree t u = Intvec.get t.offsets (u + 1) - Intvec.get t.offsets u
let offsets t = t.offsets
let targets t = t.targets

(* First index in row [u] holding a value >= v. *)
let lower_bound t u v =
  let lo = ref (Intvec.get t.offsets u) and hi = ref (Intvec.get t.offsets (u + 1)) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Intvec.get t.targets mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

let mem t u v =
  let i = lower_bound t u v in
  i < Intvec.get t.offsets (u + 1) && Intvec.get t.targets i = v

let grow t =
  let cap = Intvec.dim t.targets in
  let fresh = Intvec.make (max 8 (2 * cap)) 0 in
  Intvec.blit ~src:t.targets ~src_pos:0 ~dst:fresh ~dst_pos:0
    ~len:(Intvec.get t.offsets t.n);
  t.targets <- fresh

let insert t u v =
  let len = Intvec.get t.offsets t.n in
  if len = Intvec.dim t.targets then grow t;
  let pos = lower_bound t u v in
  (* Shift the tail up by one: a single overlap-safe memmove. *)
  Intvec.blit ~src:t.targets ~src_pos:pos ~dst:t.targets ~dst_pos:(pos + 1)
    ~len:(len - pos);
  Intvec.set t.targets pos v;
  for i = u + 1 to t.n do
    Intvec.set t.offsets i (Intvec.get t.offsets i + 1)
  done

let remove t u v =
  let pos = lower_bound t u v in
  if pos >= Intvec.get t.offsets (u + 1) || Intvec.get t.targets pos <> v then
    false
  else begin
    let len = Intvec.get t.offsets t.n in
    Intvec.blit ~src:t.targets ~src_pos:(pos + 1) ~dst:t.targets ~dst_pos:pos
      ~len:(len - pos - 1);
    for i = u + 1 to t.n do
      Intvec.set t.offsets i (Intvec.get t.offsets i - 1)
    done;
    true
  end

let iter_row f t u =
  for i = Intvec.get t.offsets u to Intvec.get t.offsets (u + 1) - 1 do
    f (Intvec.get t.targets i)
  done

let fold_row f t u acc =
  let acc = ref acc in
  for i = Intvec.get t.offsets u to Intvec.get t.offsets (u + 1) - 1 do
    acc := f (Intvec.get t.targets i) !acc
  done;
  !acc

let row_list t u =
  let rec build i acc =
    if i < Intvec.get t.offsets u then acc
    else build (i - 1) (Intvec.get t.targets i :: acc)
  in
  build (Intvec.get t.offsets (u + 1) - 1) []

let copy t =
  { n = t.n; offsets = Intvec.copy t.offsets; targets = Intvec.copy t.targets }
