(* A growable stack of ints: the journal and the step marks. *)
type stack = { mutable data : int array; mutable len : int }

let stack () = { data = Array.make 64 0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

(* Fingerprints are mixed already, so they index the table as they are. *)
module Fp = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

(* The SplitMix64 finaliser with its odd multipliers cut to 63 bits: a
   bijection on OCaml ints that spreads a code's bits over all 63. *)
let splitmix x =
  let x = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 in
  let x = (x lxor (x lsr 27)) * 0x14D049BB133111EB in
  x lxor (x lsr 31)

type t = {
  mix : int -> int;
  mutable n : int;
  mutable owned : bool;
  mutable fp : int;  (* XOR of [mix code] over the current edges *)
  journal : stack;  (* the edge code of every primitive since [start] *)
  marks : stack;  (* [marks.(k)]: the journal length after step [k] *)
  first : int Fp.t;  (* fingerprint -> the first step of each state *)
}

let create ?(mix = splitmix) () =
  { mix; n = 0; owned = false; fp = 0; journal = stack (); marks = stack ();
    first = Fp.create 64 }

(* An injective code of an edge, with its owner bit when states carry
   ownership ([Canonical.key]'s '<' mark: the smaller endpoint owns). *)
let code t a b owner =
  let lo = min a b and hi = max a b in
  (((lo * t.n) + hi) lsl 1) lor (if t.owned && owner = lo then 1 else 0)

let start t ~owned g =
  t.n <- Graph.n g;
  t.owned <- owned;
  t.fp <- Graph.fold_edges (fun u v o fp -> fp lxor t.mix (code t u v o)) g 0;
  t.journal.len <- 0;
  t.marks.len <- 0;
  Fp.reset t.first;
  push t.marks 0;
  Fp.add t.first t.fp 0

let toggle t c =
  t.fp <- t.fp lxor t.mix c;
  push t.journal c

let note t g = function
  | Move.Added (a, b) ->
      toggle t (code t a b (if t.owned then Graph.owner g a b else a))
  | Move.Removed (a, b, o) -> toggle t (code t a b o)

(* The edge set after step [k] is the current one with every code toggled
   since [k]'s mark toggled back, so the two are equal iff each of those
   codes occurs an even number of times: sorted, the slice pairs up. *)
let same_since t k =
  let from = t.marks.data.(k) in
  let len = t.journal.len - from in
  len land 1 = 0
  &&
  let slice = Array.sub t.journal.data from len in
  Array.sort Int.compare slice;
  let rec paired i =
    i >= len || (slice.(i) = slice.(i + 1) && paired (i + 2))
  in
  paired 0

let visit t =
  let step = t.marks.len in
  push t.marks t.journal.len;
  match List.find_opt (same_since t) (Fp.find_all t.first t.fp) with
  | Some _ as first -> first
  | None ->
      Fp.add t.first t.fp step;
      None
