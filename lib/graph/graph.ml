type t = {
  size : int;
  mutable edge_count : int;
  (* Adjacency lives in a flat CSR (rows sorted ascending, so neighbor
     enumeration order is a function of the edge set alone, never of the
     mutation history — the dynamics engines evaluate candidate moves by
     transiently applying and undoing them, and the differential suite
     requires enumeration identical across engines).  The CSR is patched on
     every mutation, so the BFS kernels in {!Paths} always see a current
     flat view without rebuilding. *)
  csr : Csr.t;
  (* owned_deg.(u) counts the set owner bits among u's listed neighbors,
     maintained incrementally so [owned_degree] is O(1) — it sits in the
     per-candidate cost formula of the buy games. *)
  owned_deg : int array;
  (* Bit [u * size + v] of [owner_of] is set iff the edge {u, v} exists and
     u owns it; the same bit of [adj] iff the edge exists.  The matrices
     keep edge queries O(1) and are the second representation the auditor
     cross-checks against the CSR.  They are bit-packed because the engine
     runs at n = 10,000, where one word per pair would be ~760 MiB per
     matrix; n²/8 bytes is ~12 MiB, and a snapshot is one [Bytes.copy]. *)
  adj : Bytes.t;
  owner_of : Bytes.t;
}

let matrix size = Bytes.make (((size * size) + 7) / 8) '\000'

(* Callers validate both vertices first, so the bit index is in range. *)
let bit g m u v =
  let i = (u * g.size) + v in
  Char.code (Bytes.get m (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit g m u v b =
  let i = (u * g.size) + v in
  let c = Char.code (Bytes.get m (i lsr 3)) and mask = 1 lsl (i land 7) in
  Bytes.set m (i lsr 3)
    (Char.unsafe_chr (if b then c lor mask else c land lnot mask))

let create size =
  if size < 0 then invalid_arg "Graph.create: negative size";
  {
    size;
    edge_count = 0;
    csr = Csr.create size;
    owned_deg = Array.make size 0;
    adj = matrix size;
    owner_of = matrix size;
  }

let n g = g.size
let m g = g.edge_count
let csr g = g.csr

let check_vertex g u name =
  if u < 0 || u >= g.size then
    invalid_arg (Printf.sprintf "Graph.%s: vertex %d out of range" name u)

let has_edge g u v =
  check_vertex g u "has_edge";
  check_vertex g v "has_edge";
  bit g g.adj u v

let add_edge g ~owner u v =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if bit g g.adj u v then
    invalid_arg (Printf.sprintf "Graph.add_edge: edge {%d,%d} exists" u v);
  if owner <> u && owner <> v then
    invalid_arg "Graph.add_edge: owner is not an endpoint";
  set_bit g g.adj u v true;
  set_bit g g.adj v u true;
  set_bit g g.owner_of owner (if owner = u then v else u) true;
  Csr.insert g.csr u v;
  Csr.insert g.csr v u;
  g.owned_deg.(owner) <- g.owned_deg.(owner) + 1;
  g.edge_count <- g.edge_count + 1

let remove_edge g u v =
  check_vertex g u "remove_edge";
  check_vertex g v "remove_edge";
  if not (bit g g.adj u v) then
    invalid_arg (Printf.sprintf "Graph.remove_edge: edge {%d,%d} absent" u v);
  set_bit g g.adj u v false;
  set_bit g g.adj v u false;
  (* A corrupted graph can hold the edge doubly-owned; decrement per set
     bit so owned_deg keeps matching the filtered-neighbors definition. *)
  if bit g g.owner_of u v then g.owned_deg.(u) <- g.owned_deg.(u) - 1;
  if bit g g.owner_of v u then g.owned_deg.(v) <- g.owned_deg.(v) - 1;
  set_bit g g.owner_of u v false;
  set_bit g g.owner_of v u false;
  ignore (Csr.remove g.csr u v);
  ignore (Csr.remove g.csr v u);
  g.edge_count <- g.edge_count - 1

let owner g u v =
  if not (has_edge g u v) then
    invalid_arg (Printf.sprintf "Graph.owner: edge {%d,%d} absent" u v);
  if bit g g.owner_of u v then u else v

let owns g u v =
  check_vertex g u "owns";
  check_vertex g v "owns";
  bit g g.owner_of u v

let neighbors g u =
  check_vertex g u "neighbors";
  Csr.row_list g.csr u

let owned_neighbors g u =
  check_vertex g u "owned_neighbors";
  List.rev
    (Csr.fold_row
       (fun v acc -> if bit g g.owner_of u v then v :: acc else acc)
       g.csr u [])

let degree g u =
  check_vertex g u "degree";
  Csr.degree g.csr u

let owned_degree g u =
  check_vertex g u "owned_degree";
  g.owned_deg.(u)

(* Walks the CSR rows (u ascending, each row sorted, v > u only), which
   is lexicographic order in O(n + m). *)
let fold_edges f g acc =
  let acc = ref acc in
  for u = 0 to g.size - 1 do
    Csr.iter_row
      (fun v ->
        if v > u then
          acc := f u v (if bit g g.owner_of u v then u else v) !acc)
      g.csr u
  done;
  !acc

let iter_edges f g = fold_edges (fun u v o () -> f u v o) g ()

let edges g = List.rev (fold_edges (fun u v o acc -> (u, v, o) :: acc) g [])

let copy g =
  {
    size = g.size;
    edge_count = g.edge_count;
    csr = Csr.copy g.csr;
    owned_deg = Array.copy g.owned_deg;
    adj = Bytes.copy g.adj;
    owner_of = Bytes.copy g.owner_of;
  }

let equal g h = n g = n h && edges g = edges h

let of_edges size pairs =
  let g = create size in
  List.iter (fun (u, v) -> add_edge g ~owner:u u v) pairs;
  g

let of_unowned_edges size pairs =
  let g = create size in
  List.iter (fun (u, v) -> add_edge g ~owner:(min u v) u v) pairs;
  g

let vertices g = List.init g.size (fun i -> i)

module Unsafe = struct
  let drop_half_edge g u v =
    check_vertex g u "Unsafe.drop_half_edge";
    check_vertex g v "Unsafe.drop_half_edge";
    set_bit g g.adj u v false;
    (* owned_degree counts owner bits among *listed* neighbors, so dropping
       the half-edge uncounts u's bit even though the bit itself stays. *)
    if Csr.remove g.csr u v && bit g g.owner_of u v then
      g.owned_deg.(u) <- g.owned_deg.(u) - 1

  let set_owner_bit g u v b =
    check_vertex g u "Unsafe.set_owner_bit";
    check_vertex g v "Unsafe.set_owner_bit";
    if bit g g.owner_of u v <> b && Csr.mem g.csr u v then
      g.owned_deg.(u) <- (g.owned_deg.(u) + if b then 1 else -1);
    set_bit g g.owner_of u v b

  let add_self_loop g u =
    check_vertex g u "Unsafe.add_self_loop";
    set_bit g g.adj u u true;
    Csr.insert g.csr u u;
    if bit g g.owner_of u u then g.owned_deg.(u) <- g.owned_deg.(u) + 1;
    g.edge_count <- g.edge_count + 1
end

let pp fmt g =
  Format.fprintf fmt "{n=%d;" g.size;
  iter_edges
    (fun u v o ->
      let a, b = if o = u then (u, v) else (v, u) in
      Format.fprintf fmt " %d->%d" a b)
    g;
  Format.fprintf fmt "}"

let to_string g = Format.asprintf "%a" pp g
