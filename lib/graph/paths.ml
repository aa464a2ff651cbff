type profile = { reached : int; sum : int; ecc : int }

module Workspace = struct
  type t = {
    dist : Intvec.t;
    queue : Intvec.t;
    mutable stamp : int;
    stamps : Intvec.t;
        (* stamps.(v) = stamp marks v visited in the current BFS; bumping the
           stamp resets the whole workspace in O(1). *)
    mutable rows : Intvec.t array;
        (* scratch distance rows handed out by [row], grown on demand *)
  }

  let create max_n =
    if max_n < 0 then invalid_arg "Paths.Workspace.create";
    {
      dist = Intvec.make (max 1 max_n) 0;
      queue = Intvec.make (max 1 max_n) 0;
      stamp = 0;
      stamps = Intvec.make (max 1 max_n) 0;
      rows = [||];
    }

  let row ws i =
    if i < 0 then invalid_arg "Paths.Workspace.row";
    let have = Array.length ws.rows in
    if i >= have then
      ws.rows <-
        Array.append ws.rows
          (Array.init (i + 1 - have) (fun _ ->
               Intvec.create (Intvec.dim ws.dist)));
    ws.rows.(i)

  (* Every BFS below iterates the graph's CSR directly: row [u] is the
     slice [off.(u) .. off.(u+1) - 1] of [tg].  No list cells, no closure,
     no allocation inside the visit loop.  The unsafe reads are bounded by
     the offsets invariant (off.(n) <= dim tg) and by [tail <= n]. *)

  let profile_within ws g source keep =
    let n = Graph.n g in
    if n > Intvec.dim ws.dist then
      invalid_arg "Paths.Workspace: graph larger than workspace";
    if source < 0 || source >= n then invalid_arg "Paths.profile: source";
    if not (keep source) then
      invalid_arg "Paths.profile_within: source excluded";
    let csr = Graph.csr g in
    let off = Csr.offsets csr and tg = Csr.targets csr in
    ws.stamp <- ws.stamp + 1;
    let stamp = ws.stamp in
    Intvec.set ws.stamps source stamp;
    Intvec.set ws.dist source 0;
    Intvec.set ws.queue 0 source;
    let head = ref 0 and tail = ref 1 in
    let sum = ref 0 and ecc = ref 0 in
    while !head < !tail do
      let u = Intvec.unsafe_get ws.queue !head in
      incr head;
      let du = Intvec.unsafe_get ws.dist u in
      for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
        let v = Intvec.unsafe_get tg i in
        if Intvec.unsafe_get ws.stamps v <> stamp && keep v then begin
          Intvec.unsafe_set ws.stamps v stamp;
          Intvec.unsafe_set ws.dist v (du + 1);
          sum := !sum + du + 1;
          if du + 1 > !ecc then ecc := du + 1;
          Intvec.unsafe_set ws.queue !tail v;
          incr tail
        end
      done
    done;
    { reached = !tail; sum = !sum; ecc = !ecc }

  let profile ws g source = profile_within ws g source (fun _ -> true)

  type bound = Sum_at_most of int | Ecc_at_most of int

  (* BFS visits vertices in nondecreasing distance order, so the partial
     sum and the current depth are both monotone over the run: the first
     moment either exceeds its cutoff, the final value provably does too,
     and the search can stop without an answer. *)
  let profile_bounded ws g source bound =
    let n = Graph.n g in
    if n > Intvec.dim ws.dist then
      invalid_arg "Paths.Workspace: graph larger than workspace";
    if source < 0 || source >= n then
      invalid_arg "Paths.profile_bounded: source";
    let csr = Graph.csr g in
    let off = Csr.offsets csr and tg = Csr.targets csr in
    ws.stamp <- ws.stamp + 1;
    let stamp = ws.stamp in
    Intvec.set ws.stamps source stamp;
    Intvec.set ws.dist source 0;
    Intvec.set ws.queue 0 source;
    let head = ref 0 and tail = ref 1 in
    let sum = ref 0 and ecc = ref 0 in
    let exceeded = ref false in
    (match bound with
    | Sum_at_most c -> if c < 0 then exceeded := true
    | Ecc_at_most c -> if c < 0 then exceeded := true);
    while (not !exceeded) && !head < !tail do
      let u = Intvec.unsafe_get ws.queue !head in
      incr head;
      let du = Intvec.unsafe_get ws.dist u in
      let i = ref (Intvec.unsafe_get off u) in
      let row_end = Intvec.unsafe_get off (u + 1) in
      while (not !exceeded) && !i < row_end do
        let v = Intvec.unsafe_get tg !i in
        incr i;
        if Intvec.unsafe_get ws.stamps v <> stamp then begin
          Intvec.unsafe_set ws.stamps v stamp;
          Intvec.unsafe_set ws.dist v (du + 1);
          sum := !sum + du + 1;
          if du + 1 > !ecc then ecc := du + 1;
          (match bound with
          | Sum_at_most c -> if !sum > c then exceeded := true
          | Ecc_at_most c -> if du + 1 > c then exceeded := true);
          Intvec.unsafe_set ws.queue !tail v;
          incr tail
        end
      done
    done;
    if !exceeded then None else Some { reached = !tail; sum = !sum; ecc = !ecc }

  (* Fill [dst] (length >= n) with distances from [source]; -1 marks
     unreachable.  This is the allocation-free kernel behind both the
     [int array] wrapper below and the distance cache's table fills. *)
  let distances_into ws g source (dst : Intvec.t) =
    let n = Graph.n g in
    if n > Intvec.dim ws.dist then
      invalid_arg "Paths.Workspace: graph larger than workspace";
    if n > Intvec.dim dst then
      invalid_arg "Paths.Workspace.distances_into: destination too small";
    if source < 0 || source >= n then
      invalid_arg "Paths.Workspace.distances: source";
    let csr = Graph.csr g in
    let off = Csr.offsets csr and tg = Csr.targets csr in
    for v = 0 to n - 1 do
      Intvec.unsafe_set dst v (-1)
    done;
    Intvec.set dst source 0;
    Intvec.set ws.queue 0 source;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = Intvec.unsafe_get ws.queue !head in
      incr head;
      let du = Intvec.unsafe_get dst u in
      for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
        let v = Intvec.unsafe_get tg i in
        if Intvec.unsafe_get dst v < 0 then begin
          Intvec.unsafe_set dst v (du + 1);
          Intvec.unsafe_set ws.queue !tail v;
          incr tail
        end
      done
    done

  (* Adding {s, y} to the graph whose distances from [s] are [base] gives
     d'(v) = min (base v, 1 + d_{G-s}(y, v)): a shortest path from [s]
     either avoids the new edge or starts with it.  The region R where the
     second term wins (1 + d(y, v) < base v, with -1 read as infinity) is
     closed under shortest-path prefixes from [y]: if w precedes v on one,
     base w >= base v - d(w, v) > 1 + d(y, w).  So a BFS from [y] that
     enqueues only members of R discovers each of them at its true
     distance, and a vertex rejected at its first discovery fails at every
     later (no shorter) one, so only members of R are stamped.  [s] itself
     never qualifies (base s = 0), so the BFS runs in G - s without
     editing the graph.  The profile follows from the base aggregates and
     R alone:
       reached' = reached + |R ∩ {base < 0}|
       sum'     = sum - Σ_{R, base >= 0} (base - 1 - d) + Σ_{R, base < 0} (1 + d)
       ecc'     = max (1 + max_R d) (highest level L with
                                      hist.(L) > |R ∩ {base = L}|) *)
  let profile_with_edge ws g (base : Intvec.t) ~reached ~sum ~hist y =
    let n = Graph.n g in
    if n > Intvec.dim ws.dist then
      invalid_arg "Paths.Workspace: graph larger than workspace";
    if n > Intvec.dim base then
      invalid_arg "Paths.Workspace.profile_with_edge: base row too small";
    if y < 0 || y >= n then
      invalid_arg "Paths.Workspace.profile_with_edge: target";
    let top_level = Array.length hist - 1 in
    if top_level < 0 || top_level >= Intvec.dim ws.dist then
      invalid_arg "Paths.Workspace.profile_with_edge: histogram";
    let by = Intvec.get base y in
    if by >= 0 && by <= 1 then { reached; sum; ecc = top_level }
    else begin
      let csr = Graph.csr g in
      let off = Csr.offsets csr and tg = Csr.targets csr in
      ws.stamp <- ws.stamp + 1;
      let stamp = ws.stamp in
      Intvec.set ws.stamps y stamp;
      Intvec.set ws.dist y 0;
      Intvec.set ws.queue 0 y;
      let reached = ref (if by < 0 then reached + 1 else reached) in
      let sum = ref (if by < 0 then sum + 1 else sum - (by - 1)) in
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = Intvec.unsafe_get ws.queue !head in
        incr head;
        let dv = Intvec.unsafe_get ws.dist u + 1 in
        for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
          let v = Intvec.unsafe_get tg i in
          let bv = Intvec.unsafe_get base v in
          if (bv < 0 || dv + 1 < bv) && Intvec.unsafe_get ws.stamps v <> stamp
          then begin
            Intvec.unsafe_set ws.stamps v stamp;
            if bv < 0 then begin
              incr reached;
              sum := !sum + dv + 1
            end
            else sum := !sum - (bv - dv - 1);
            Intvec.unsafe_set ws.dist v dv;
            Intvec.unsafe_set ws.queue !tail v;
            incr tail
          end
        done
      done;
      (* BFS order: the last vertex enqueued is the deepest *)
      let reach =
        1 + Intvec.unsafe_get ws.dist (Intvec.unsafe_get ws.queue (!tail - 1))
      in
      let ecc =
        if reach >= top_level then reach
        else begin
          (* [ws.dist] is free again: count R's members per base level *)
          let levels = ws.dist in
          for l = reach + 1 to top_level do
            Intvec.unsafe_set levels l 0
          done;
          for k = 0 to !tail - 1 do
            let l = Intvec.unsafe_get base (Intvec.unsafe_get ws.queue k) in
            if l > reach && l <= top_level then
              Intvec.unsafe_set levels l (Intvec.unsafe_get levels l + 1)
          done;
          let l = ref top_level in
          while !l > reach && hist.(!l) <= Intvec.unsafe_get levels !l do
            decr l
          done;
          !l
        end
      in
      { reached = !reached; sum = !sum; ecc }
    end

  let distances ws g source =
    let n = Graph.n g in
    let vec = Intvec.create (max 1 n) in
    distances_into ws g source vec;
    Array.init n (fun v -> Intvec.get vec v)

  (* Point query without the result-array allocation of [distances]:
     stamped BFS with early exit once [target] is dequeued. *)
  let distance ws g source target =
    let n = Graph.n g in
    if n > Intvec.dim ws.dist then
      invalid_arg "Paths.Workspace: graph larger than workspace";
    if source < 0 || source >= n || target < 0 || target >= n then
      invalid_arg "Paths.Workspace.distance: vertex";
    let csr = Graph.csr g in
    let off = Csr.offsets csr and tg = Csr.targets csr in
    ws.stamp <- ws.stamp + 1;
    let stamp = ws.stamp in
    Intvec.set ws.stamps source stamp;
    Intvec.set ws.dist source 0;
    Intvec.set ws.queue 0 source;
    let head = ref 0 and tail = ref 1 in
    let found = ref (if source = target then 0 else -1) in
    while !found < 0 && !head < !tail do
      let u = Intvec.unsafe_get ws.queue !head in
      incr head;
      let du = Intvec.unsafe_get ws.dist u in
      for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
        let v = Intvec.unsafe_get tg i in
        if Intvec.unsafe_get ws.stamps v <> stamp then begin
          Intvec.unsafe_set ws.stamps v stamp;
          Intvec.unsafe_set ws.dist v (du + 1);
          if v = target then found := du + 1;
          Intvec.unsafe_set ws.queue !tail v;
          incr tail
        end
      done
    done;
    !found
end

let profile g source =
  let ws = Workspace.create (Graph.n g) in
  Workspace.profile ws g source

let distances g source =
  let ws = Workspace.create (Graph.n g) in
  Workspace.distances ws g source

let distance g u v =
  let ws = Workspace.create (Graph.n g) in
  Workspace.distance ws g u v

let all_pairs g =
  (* One shared workspace across all sources: only the n result rows are
     allocated, not a queue per source. *)
  let ws = Workspace.create (Graph.n g) in
  Array.init (Graph.n g) (fun u -> Workspace.distances ws g u)

let is_connected g =
  let n = Graph.n g in
  n <= 1 || (profile g 0).reached = n

let eccentricities g =
  let n = Graph.n g in
  if n = 0 then Some [||]
  else
    let ws = Workspace.create n in
    let ecc = Array.make n 0 in
    let connected = ref true in
    for u = 0 to n - 1 do
      let p = Workspace.profile ws g u in
      if p.reached < n then connected := false;
      ecc.(u) <- p.ecc
    done;
    if !connected then Some ecc else None

let diameter g =
  match eccentricities g with
  | None -> None
  | Some [||] -> Some 0
  | Some ecc -> Some (Array.fold_left max 0 ecc)

let radius g =
  match eccentricities g with
  | None -> None
  | Some [||] -> Some 0
  | Some ecc -> Some (Array.fold_left min max_int ecc)

let center g =
  match eccentricities g with
  | None -> []
  | Some [||] -> []
  | Some ecc ->
      let r = Array.fold_left min max_int ecc in
      List.filter (fun v -> ecc.(v) = r) (Graph.vertices g)

let components g =
  let n = Graph.n g in
  let ws = Workspace.create n in
  let seen = Array.make n false in
  let comps = ref [] in
  for u = 0 to n - 1 do
    if not seen.(u) then begin
      let dist = Workspace.distances ws g u in
      let comp = ref [] in
      for v = n - 1 downto 0 do
        if dist.(v) >= 0 then begin
          seen.(v) <- true;
          comp := v :: !comp
        end
      done;
      comps := !comp :: !comps
    end
  done;
  List.rev !comps
