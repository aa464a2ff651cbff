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

  let profile ws g source =
    let n = Graph.n g in
    if n > Intvec.dim ws.dist then
      invalid_arg "Paths.Workspace: graph larger than workspace";
    if source < 0 || source >= n then invalid_arg "Paths.profile: source";
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
        if Intvec.unsafe_get ws.stamps v <> stamp then begin
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
                                      hist.(L) > |R ∩ {base = L}|)

     Under [Sum_at_most b] the BFS stops with [None] at the first level j
     (every member of R within j of [y] found) where the sum so far, minus
     a bound on the gain still to come, exceeds [b].  A member found later
     lies at least j + 1 from [y], so it gains at most base - j - 2:
       T_j = Σ_{L >= j+3} hist.(L) (L - j - 2).
     The members at exactly j + 1 are neighbours of level j's (R is closed
     under shortest-path prefixes), each gaining at most ecc - j - 2, and
     the rest gain at most T_{j+1}: so the degree sum D_j of level j gives
     D_j (ecc - j - 2) + T_{j+1}, and the smaller of the two bounds holds.
     Both read a base row that reaches every vertex; a base row with an
     unreachable vertex, and a budget the sum after [y]'s own gain
     already meets (the sum only falls from there), run without the
     checks.

     Under [Ecc_at_most b] the one check comes before the BFS: the new
     edge shortens no distance by more than base y - 1, since
     1 + d(y, v) >= 1 + base v - base y, so a vertex at the top level
     stays at least top - (base y - 1) away, and [None] comes back when
     that exceeds [b].  Every [Some] is exact. *)
  let profile_with_edge ws g (base : Intvec.t) ~reached ~sum ~hist ?bound y =
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
    let too_far =
      match bound with
      | Some (Ecc_at_most b) -> by > 1 && top_level - (by - 1) > b
      | Some (Sum_at_most _) | None -> false
    in
    if by >= 0 && by <= 1 then Some { reached; sum; ecc = top_level }
    else if too_far then None
    else begin
      let csr = Graph.csr g in
      let off = Csr.offsets csr and tg = Csr.targets csr in
      (* the cutoff the level checks test; [max_int] when none can fire *)
      let budget =
        match bound with
        | Some (Sum_at_most b) when reached = n && sum - (by - 1) > b -> b
        | Some (Sum_at_most _ | Ecc_at_most _) | None -> max_int
      in
      (* T_j and Σ_{L >= j+3} hist.(L), advanced one level per check *)
      let tail_gain = ref 0 and tail_count = ref 0 in
      if budget < max_int then
        for l = 3 to top_level do
          tail_gain := !tail_gain + (hist.(l) * (l - 2));
          tail_count := !tail_count + hist.(l)
        done;
      ws.stamp <- ws.stamp + 1;
      let stamp = ws.stamp in
      Intvec.set ws.stamps y stamp;
      Intvec.set ws.dist y 0;
      Intvec.set ws.queue 0 y;
      let reached = ref (if by < 0 then reached + 1 else reached) in
      let sum = ref (if by < 0 then sum + 1 else sum - (by - 1)) in
      let head = ref 0 and tail = ref 1 in
      (* The queue holds the levels in turn.  When [head] reaches
         [level_end], level j is complete: queue[level_end .. tail).
         [-1] never matches, so an unbounded call runs no check. *)
      let level_end = ref (if budget < max_int then 0 else -1) and j = ref 0 in
      let complete =
        try
          while !head < !tail do
            if !head = !level_end then begin
              let degrees = ref 0 in
              for k = !level_end to !tail - 1 do
                let v = Intvec.unsafe_get ws.queue k in
                degrees :=
                  !degrees + Intvec.unsafe_get off (v + 1)
                  - Intvec.unsafe_get off v
              done;
              let t_next = !tail_gain - !tail_count in
              let next_level = !degrees * max 0 (top_level - !j - 2) in
              let gain = min !tail_gain (next_level + t_next) in
              if !sum - gain > budget then raise_notrace Exit;
              tail_gain := t_next;
              if !j + 3 <= top_level then
                tail_count := !tail_count - hist.(!j + 3);
              incr j;
              level_end := !tail
            end;
            let u = Intvec.unsafe_get ws.queue !head in
            incr head;
            let dv = Intvec.unsafe_get ws.dist u + 1 in
            let row_end = Intvec.unsafe_get off (u + 1) - 1 in
            for i = Intvec.unsafe_get off u to row_end do
              let v = Intvec.unsafe_get tg i in
              let bv = Intvec.unsafe_get base v in
              if
                (bv < 0 || dv + 1 < bv)
                && Intvec.unsafe_get ws.stamps v <> stamp
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
          true
        with Exit -> false
      in
      if not complete then None
      else begin
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
        Some { reached = !reached; sum = !sum; ecc }
      end
    end

  let distances ws g source =
    let n = Graph.n g in
    let vec = Intvec.create (max 1 n) in
    distances_into ws g source vec;
    Array.init n (fun v -> Intvec.get vec v)
end

(* Bit-parallel BFS (Then et al., "The More the Merrier: Efficient
   Multi-Source Graph Traversal", PVLDB 8(4), 2014).  Bit i of a vertex's
   word stands for source i: [seen] holds the sources that reached the
   vertex, [visit] those for which it lies on the current level, [next]
   those for which it lies on the level being built.  A level is one pass
   over the graph for every lane at once:

   - top-down over the frontier list's edges, OR-ing each frontier word
     into its neighbors' [next] words, minus what they have seen;
   - bottom-up over the vertices some lane has not reached yet, OR-ing
     their neighbors' [visit] words, stopping once no lane is missing.

   Both give next(w) = (OR of visit over w's neighbors) minus seen(w), so
   the choice is cost alone: top-down pays the frontier's degree sum,
   bottom-up at most the degree sum of the incomplete vertices (tracked as
   they complete), and usually far less, since it stops at a vertex once
   every lane has reached it.  Top-down runs while the first is below a
   quarter of the second: on random graphs with n = 2,000 that read
   30-40% faster than an even split at m = 2n and m = 4n, and 15% slower
   at the sparser m = n, where sources in small components leave most
   vertices incomplete for good.

   A level's new words are summed into bit-sliced counters — word j holds
   bit j of every lane's count — so a vertex costs one ripple-carry add
   rather than a loop over its lanes, and each lane's count is read out
   once per level. *)
module Multi = struct
  let width = Sys.int_size

  type t = {
    seen : Intvec.t;
    mutable visit : Intvec.t;  (* zero outside the frontier list *)
    mutable next : Intvec.t;  (* zero between levels *)
    mutable front : Intvec.t;  (* the vertices with a non-zero [visit] *)
    mutable found : Intvec.t;  (* the vertices given a non-zero [next] *)
    counter : int array;
  }

  let create max_n =
    if max_n < 0 then invalid_arg "Paths.Multi.create";
    let row x = Intvec.make (max 1 max_n) x in
    {
      seen = row 0;
      visit = row 0;
      next = row 0;
      front = row 0;
      found = row 0;
      counter = Array.make (width + 1) 0;
    }

  let profiles t g sources =
    let n = Graph.n g and k = Array.length sources in
    if n > Intvec.dim t.seen then
      invalid_arg "Paths.Multi: graph larger than the scratch rows";
    if k < 1 || k > width then invalid_arg "Paths.Multi.profiles: width";
    Array.iter
      (fun s -> if s < 0 || s >= n then invalid_arg "Paths.Multi: source")
      sources;
    let csr = Graph.csr g in
    let off = Csr.offsets csr and tg = Csr.targets csr in
    let degree v = Intvec.unsafe_get off (v + 1) - Intvec.unsafe_get off v in
    (* bit 62 is the sign bit: [-1] sets all [width] lanes *)
    let full = if k = width then -1 else (1 lsl k) - 1 in
    let seen = t.seen and counter = t.counter in
    for v = 0 to n - 1 do
      Intvec.unsafe_set seen v 0
    done;
    let reached = Array.make k 1 and sum = Array.make k 0
    and ecc = Array.make k 0 in
    let frontier = ref 0 and frontier_edges = ref 0 in
    Array.iteri
      (fun i s ->
        let w = Intvec.get t.visit s in
        if w = 0 then begin
          Intvec.set t.front !frontier s;
          incr frontier;
          frontier_edges := !frontier_edges + degree s
        end;
        Intvec.set t.visit s (w lor (1 lsl i));
        Intvec.set seen s (Intvec.get seen s lor (1 lsl i)))
      sources;
    (* half-edges at vertices some lane has not reached *)
    let open_edges = ref (Intvec.get off n) in
    for j = 0 to !frontier - 1 do
      let s = Intvec.get t.front j in
      if Intvec.get seen s = full then open_edges := !open_edges - degree s
    done;
    let level = ref 0 in
    while !frontier > 0 do
      incr level;
      let visit = t.visit and next = t.next in
      let front = t.front and found = t.found in
      let nfound = ref 0 in
      if !frontier_edges * 4 < !open_edges then
        for j = 0 to !frontier - 1 do
          let v = Intvec.unsafe_get front j in
          let bits = Intvec.unsafe_get visit v in
          let stop = Intvec.unsafe_get off (v + 1) - 1 in
          for e = Intvec.unsafe_get off v to stop do
            let w = Intvec.unsafe_get tg e in
            let fresh = bits land lnot (Intvec.unsafe_get seen w) in
            if fresh <> 0 then begin
              let old = Intvec.unsafe_get next w in
              if old = 0 then begin
                Intvec.unsafe_set found !nfound w;
                incr nfound
              end;
              Intvec.unsafe_set next w (old lor fresh)
            end
          done
        done
      else
        for w = 0 to n - 1 do
          let sw = Intvec.unsafe_get seen w in
          if sw <> full then begin
            let acc = ref sw in
            let e = ref (Intvec.unsafe_get off w) in
            let stop = Intvec.unsafe_get off (w + 1) in
            while !e < stop && !acc <> full do
              acc := !acc lor Intvec.unsafe_get visit (Intvec.unsafe_get tg !e);
              incr e
            done;
            let fresh = !acc land lnot sw in
            if fresh <> 0 then begin
              Intvec.unsafe_set next w fresh;
              Intvec.unsafe_set found !nfound w;
              incr nfound
            end
          end
        done;
      (* settle the level: mark the new words seen and count them *)
      let top = ref (-1) and lanes = ref 0 in
      frontier_edges := 0;
      for j = 0 to !nfound - 1 do
        let w = Intvec.unsafe_get found j in
        let bits = Intvec.unsafe_get next w in
        let s = Intvec.unsafe_get seen w lor bits in
        Intvec.unsafe_set seen w s;
        frontier_edges := !frontier_edges + degree w;
        if s = full then open_edges := !open_edges - degree w;
        lanes := !lanes lor bits;
        let carry = ref bits and b = ref 0 in
        while !carry <> 0 do
          let c = Array.unsafe_get counter !b in
          Array.unsafe_set counter !b (c lxor !carry);
          carry := c land !carry;
          incr b
        done;
        if !b - 1 > !top then top := !b - 1
      done;
      for i = 0 to k - 1 do
        if (!lanes lsr i) land 1 = 1 then begin
          let c = ref 0 in
          for b = !top downto 0 do
            c := (!c lsl 1) lor ((Array.unsafe_get counter b lsr i) land 1)
          done;
          reached.(i) <- reached.(i) + !c;
          sum.(i) <- sum.(i) + (!level * !c);
          ecc.(i) <- !level
        end
      done;
      Array.fill counter 0 (!top + 1) 0;
      for j = 0 to !frontier - 1 do
        Intvec.unsafe_set visit (Intvec.unsafe_get front j) 0
      done;
      t.visit <- next;
      t.next <- visit;
      t.front <- found;
      t.found <- front;
      frontier := !nfound
    done;
    Array.init k (fun i ->
        { reached = reached.(i); sum = sum.(i); ecc = ecc.(i) })
end

let profile g source =
  let ws = Workspace.create (Graph.n g) in
  Workspace.profile ws g source

let distances g source =
  let ws = Workspace.create (Graph.n g) in
  Workspace.distances ws g source

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
