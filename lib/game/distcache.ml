(* Cross-step cache of single-source distance tables, patched after every
   applied move instead of being rebuilt.

   Invariant: whenever [tables.(v) = Some d], [d.(x)] is the exact BFS
   distance from [v] to [x] in the *current* graph ([-1] = unreachable).
   The engine calls [note_added]/[note_removed] immediately after each
   primitive edge change of a committed move; each call either proves the
   table unchanged (keep), repairs the changed region with a
   frontier-bounded incremental BFS, or falls back to a fresh scan when the
   affected set exceeds a threshold.  The cache therefore changes *when*
   distances are computed — never their values — which is what keeps the
   fast engine byte-identical to the reference.

   Keep rules (table [d] = distances from source [v], pre-primitive):

   - insert (a,b): with both endpoints reachable and |d(a) - d(b)| <= 1 the
     new edge joins adjacent-or-equal BFS levels, so no path improves; with
     both unreachable, the edge lies outside v's component entirely.
   - delete (a,b): with d(a) = d(b) the edge connects equals, hence lies on
     no shortest-path DAG; with both unreachable it was outside v's
     component.
   - delete fast-keep: let b be the far endpoint, d(b) = d(a) + 1.  If b
     retains another neighbor w with d(w) = d(b) - 1 the whole table is
     unchanged: any shortest path using {a,b} traverses it from level d(a)
     to level d(b) and can be rerouted through w (whose own shortest path
     cannot use {a,b}, since shortest paths visit strictly increasing
     levels and that edge joins levels d(a)/d(b) — it would have to be its
     final edge, making it b).

   Repairs:

   - insert: only the far side can improve; a decrease-only BFS seeded with
     d(near) + 1 at the far endpoint touches exactly the improved region
     (each vertex enqueues at most once — queue values are nondecreasing,
     so the first improvement is final).
   - delete: compute the affected set level-by-level ("Ramalingam–Reps"
     style): a candidate at level L is affected iff it has no neighbor at
     level L - 1 that survived; candidates of the next level are the
     affected's neighbors at L + 1.  Processing strictly by level makes
     every parent's verdict final before its children ask.  Affected
     vertices are then recomputed by a multi-source Dial scan seeded from
     their non-affected neighbors (no seed anywhere = the deletion
     disconnected them: -1).  If the affected set outgrows [threshold], the
     level structure is degenerating and a fresh BFS is cheaper.

   Transient rows: the best-response scan scores the deletion of an edge
   {u, x} of its mover, and every swap removing it, on d_{G-ux}(u, .).
   [without_edge] builds that row with the same repair, run on a copy of
   u's table with the edge still in the CSR.  The repair takes the removed
   pair and never crosses it: the far endpoint x is affected without a
   survival check (u was its only parent), and x is not seeded from u.
   After a committed deletion the CSR no longer holds the edge, so both
   rules change nothing there.  The fallback BFS skips the pair too.  The
   counters, the incremental aggregates and the profile invalidation
   belong to [note_removed], so a transient row leaves every book of the
   cache as it was.

   Dirty sets (the selection layer's feed): every noted primitive also
   classifies ALL n sources — resident or not — as changed ("dirty") or
   unchanged, using distance symmetry: the distance from source v to
   endpoint a equals the distance from a to v, i.e. row v of the matrix
   can be classified from entry v of the endpoints' own rows.  The engine
   pins the two endpoint tables resident before applying a move (see
   [pin]).  Both endpoints are always dirty.  An insertion reads the
   pre-primitive rows: v's row changes iff the insert keep rule above fails
   at v.  A deletion snapshots them, lets the resident-table loop repair
   both in place, and marks v dirty iff d(v,a) <> d(v,b) and either row
   moved at v.  Say d(v,a) < d(v,b): if d(v,b) survives, every shortest
   path from v through the edge reroutes along b's own unchanged shortest
   paths, so v's row changes iff d(v,b) grows.  Either way one flat O(n)
   scan — a few word reads per agent, no BFS — and with both rows resident
   the dirty set is exactly the set of sources whose row changed.  If
   either endpoint row is unavailable the cache marks every source dirty,
   which is always sound.  A source that is not dirty kept its entire
   table, hence its cost profile; the selection layer re-evaluates only
   dirty agents.

   Memory bound: [budget] caps resident tables.  Installing a table past
   the cap evicts the least-recently-used unpinned one (logical clock, not
   wall time, so arena and fresh runs see identical eviction sequences).
   Eviction frees no information the graph does not still hold — a refill
   is a fresh BFS, counted in [fills].

   Table-less profiles: the cost board needs only a dirty agent's
   (reached, sum, ecc), and under a budget a table filled for that alone
   is evicted again within the same refresh.  [batch_profile] answers
   from a memo instead, filled 63 sources at a time by [Paths.Multi]'s
   bit-parallel BFS and installing nothing.  Entries are stamped with
   [epoch], which every noted primitive and [reset] advance, so a memo
   entry never outlives the graph it was computed on.  Resident tables
   keep their O(1) aggregate read ([sum_profile]): routing them through
   the batch too measured slower. *)

type stats = {
  kept : int;
  repaired : int;
  rebuilt : int;
  fills : int;
  evicted : int;
}

let zero_stats = { kept = 0; repaired = 0; rebuilt = 0; fills = 0; evicted = 0 }

let add_stats a b =
  {
    kept = a.kept + b.kept;
    repaired = a.repaired + b.repaired;
    rebuilt = a.rebuilt + b.rebuilt;
    fills = a.fills + b.fills;
    evicted = a.evicted + b.evicted;
  }

type residency = {
  resident : int;
  peak : int;
  budget : int option;
  bytes : int;
  peak_bytes : int;
}

let zero_residency =
  { resident = 0; peak = 0; budget = None; bytes = 0; peak_bytes = 0 }

type t = {
  n : int;
  threshold : int;
  budget : int option;
  tables : Intvec.t option array;
  mutable free_tabs : Intvec.t list;
      (* evicted/reset table buffers, reused by the next fill *)
  profiles : Paths.profile option array;
      (* cached per-source profile of tables.(v); invalidated on change *)
  psum : int array;  (* incremental (reached, sum) of tables.(v), valid *)
  preach : int array;  (* iff pvalid.(v): repairs read every overwritten *)
  pvalid : bool array;  (* entry, so the aggregates track in O(changed) *)
  (* residency bookkeeping *)
  res_list : int array; (* dense list of sources with resident tables *)
  res_pos : int array; (* position in res_list, or -1 *)
  mutable res_count : int;
  mutable res_peak : int;
  last_use : int array; (* logical-clock stamps driving LRU eviction *)
  mutable clock : int;
  pin_count : int array; (* pinned tables are never evicted *)
  (* dirty set accumulated since [clear_dirty] *)
  dirty_mark : int array; (* stamps *)
  dirty_list : int array;
  mutable dirty_stamp : int;
  mutable dirty_count : int;
  mutable dirty_every : bool;
  snap_a : Intvec.t; (* pre-deletion endpoint rows for [classify_delete] *)
  snap_b : Intvec.t;
  (* profiles of table-less sources from the bit-parallel BFS, valid
     while [memo_epoch.(v) = epoch]; every noted primitive and [reset]
     advance [epoch].  Off-heap like the tables: as n-word heap arrays,
     made with each cache (one per trial outside an arena), they grew
     the GC heap by more than the tables this memo spares. *)
  memo_reached : Intvec.t;
  memo_sum : Intvec.t;
  memo_ecc : Intvec.t;
  memo_epoch : Intvec.t;
  mutable epoch : int;
  mutable multi : Paths.Multi.t option; (* its scratch, on the first miss *)
  mutable kept : int;
  mutable repaired : int;
  mutable rebuilt : int;
  mutable fills : int;
  mutable evicted : int;
  (* scratch, reused across repairs *)
  queue : Intvec.t;
  mutable wave : Intvec.t;
  mutable wnext : Intvec.t;
  cand : Intvec.t; (* stamps: candidate-seen marker *)
  aff : Intvec.t; (* stamps: affected marker *)
  mutable stamp : int;
  buckets : int list array; (* Dial buckets; empty outside repair_delete *)
}

let create ?threshold ?budget n =
  if n < 0 then invalid_arg "Distcache.create: negative size";
  let threshold =
    match threshold with
    | Some t -> if t < 0 then invalid_arg "Distcache.create: threshold" else t
    | None -> max 16 (n / 4)
  in
  (match budget with
  | Some b when b < 2 -> invalid_arg "Distcache.create: budget < 2"
  | _ -> ());
  let mk x = Array.make (max 1 n) x in
  let vec x = Intvec.make (max 1 n) x in
  {
    n;
    threshold;
    budget;
    tables = Array.make (max 1 n) None;
    free_tabs = [];
    profiles = Array.make (max 1 n) None;
    psum = mk 0;
    preach = mk 0;
    pvalid = Array.make (max 1 n) false;
    res_list = mk 0;
    res_pos = mk (-1);
    res_count = 0;
    res_peak = 0;
    last_use = mk 0;
    clock = 0;
    pin_count = mk 0;
    dirty_mark = mk 0;
    dirty_list = mk 0;
    dirty_stamp = 1;
    dirty_count = 0;
    dirty_every = false;
    snap_a = vec 0;
    snap_b = vec 0;
    memo_reached = vec 0;
    memo_sum = vec 0;
    memo_ecc = vec 0;
    memo_epoch = vec 0;
    epoch = 1;
    multi = None;
    kept = 0;
    repaired = 0;
    rebuilt = 0;
    fills = 0;
    evicted = 0;
    queue = vec 0;
    wave = vec 0;
    wnext = vec 0;
    cand = vec 0;
    aff = vec 0;
    stamp = 0;
    buckets = Array.make (n + 2) [];
  }

let n t = t.n
let budget t = t.budget

let table_bytes t = Intvec.bytes t.snap_a

let residency t =
  {
    resident = t.res_count;
    peak = t.res_peak;
    budget = t.budget;
    bytes = t.res_count * table_bytes t;
    peak_bytes = t.res_peak * table_bytes t;
  }

let touch t v =
  t.clock <- t.clock + 1;
  t.last_use.(v) <- t.clock

let get t v =
  match t.tables.(v) with
  | Some _ as r ->
      touch t v;
      r
  | None -> None

let pin t v = t.pin_count.(v) <- t.pin_count.(v) + 1

let unpin t v =
  if t.pin_count.(v) <= 0 then invalid_arg "Distcache.unpin: not pinned";
  t.pin_count.(v) <- t.pin_count.(v) - 1

(* Dirty set *)

let clear_dirty t =
  t.dirty_stamp <- t.dirty_stamp + 1;
  t.dirty_count <- 0;
  t.dirty_every <- false

let mark_dirty t v =
  if (not t.dirty_every) && t.dirty_mark.(v) <> t.dirty_stamp then begin
    t.dirty_mark.(v) <- t.dirty_stamp;
    t.dirty_list.(t.dirty_count) <- v;
    t.dirty_count <- t.dirty_count + 1
  end

let mark_all_dirty t = t.dirty_every <- true

let is_dirty t v = t.dirty_every || t.dirty_mark.(v) = t.dirty_stamp

let dirty_count t = if t.dirty_every then t.n else t.dirty_count

let iter_dirty f t =
  if t.dirty_every then
    for v = 0 to t.n - 1 do
      f v
    done
  else
    for k = 0 to t.dirty_count - 1 do
      f t.dirty_list.(k)
    done

(* Residency plumbing *)

let res_add t v =
  if t.res_pos.(v) < 0 then begin
    t.res_list.(t.res_count) <- v;
    t.res_pos.(v) <- t.res_count;
    t.res_count <- t.res_count + 1;
    if t.res_count > t.res_peak then t.res_peak <- t.res_count
  end

let res_remove t v =
  let pos = t.res_pos.(v) in
  if pos >= 0 then begin
    let last = t.res_list.(t.res_count - 1) in
    t.res_list.(pos) <- last;
    t.res_pos.(last) <- pos;
    t.res_pos.(v) <- -1;
    t.res_count <- t.res_count - 1
  end

let alloc_table t =
  match t.free_tabs with
  | buf :: rest ->
      t.free_tabs <- rest;
      buf
  | [] -> Intvec.create (max 1 t.n)

(* Drop the LRU unpinned table.  Values are unchanged by eviction — the
   graph still determines them — and a later refill recomputes them. *)
let evict_one t =
  let best = ref (-1) and best_use = ref max_int in
  for k = 0 to t.res_count - 1 do
    let v = t.res_list.(k) in
    if t.pin_count.(v) = 0 && t.last_use.(v) < !best_use then begin
      best := v;
      best_use := t.last_use.(v)
    end
  done;
  match !best with
  | -1 -> false (* everything resident is pinned; tolerate transient overage *)
  | v ->
      (match t.tables.(v) with
      | Some buf -> t.free_tabs <- buf :: t.free_tabs
      | None -> ());
      t.tables.(v) <- None;
      t.profiles.(v) <- None;
      t.pvalid.(v) <- false;
      res_remove t v;
      t.evicted <- t.evicted + 1;
      true

let enforce_budget t keep =
  match t.budget with
  | None -> ()
  | Some b ->
      pin t keep;
      let continue_ = ref true in
      while !continue_ && t.res_count > b do
        continue_ := evict_one t
      done;
      unpin t keep

let ensure t ~ws g v =
  match t.tables.(v) with
  | Some d ->
      touch t v;
      d
  | None ->
      let buf = alloc_table t in
      Paths.Workspace.distances_into ws g v buf;
      t.tables.(v) <- Some buf;
      t.profiles.(v) <- None;
      t.pvalid.(v) <- false;
      t.fills <- t.fills + 1;
      res_add t v;
      touch t v;
      enforce_budget t v;
      buf

(* Return the cache to its freshly-created state so an arena's next trial
   can reuse it: tables and profiles are dropped (buffers recycled) and
   the stat counters zeroed, making per-trial [stats] identical to a solo
   run's.  The repair stamps stay monotone, so no stale mark survives. *)
let reset t =
  for k = 0 to t.res_count - 1 do
    let v = t.res_list.(k) in
    (match t.tables.(v) with
    | Some buf -> t.free_tabs <- buf :: t.free_tabs
    | None -> ());
    t.tables.(v) <- None;
    t.res_pos.(v) <- -1
  done;
  t.res_count <- 0;
  t.res_peak <- 0;
  Array.fill t.profiles 0 (Array.length t.profiles) None;
  Array.fill t.pvalid 0 (Array.length t.pvalid) false;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  Array.fill t.pin_count 0 (Array.length t.pin_count) 0;
  t.clock <- 0;
  t.epoch <- t.epoch + 1;
  clear_dirty t;
  t.kept <- 0;
  t.repaired <- 0;
  t.rebuilt <- 0;
  t.fills <- 0;
  t.evicted <- 0

let stats t =
  {
    kept = t.kept;
    repaired = t.repaired;
    rebuilt = t.rebuilt;
    fills = t.fills;
    evicted = t.evicted;
  }

let profile t v =
  match t.profiles.(v) with
  | Some p -> p
  | None -> (
      match t.tables.(v) with
      | None -> invalid_arg "Distcache.profile: no table"
      | Some dist ->
          let reached = ref 0 and sum = ref 0 and ecc = ref 0 in
          for x = 0 to t.n - 1 do
            let d = Intvec.unsafe_get dist x in
            if d >= 0 then begin
              incr reached;
              sum := !sum + d;
              if d > !ecc then ecc := d
            end
          done;
          let p = { Paths.reached = !reached; sum = !sum; ecc = !ecc } in
          t.profiles.(v) <- Some p;
          t.psum.(v) <- !sum;
          t.preach.(v) <- !reached;
          t.pvalid.(v) <- true;
          p)

(* (reached, sum) without the eccentricity: served from the incremental
   aggregates when the full profile (whose [ecc] a repair cannot patch in
   O(changed)) has been invalidated — the sum-distance fast paths and the
   cost-board refresh never pay an O(n) rescan for a repaired row. *)
let sum_profile t v =
  if t.pvalid.(v) then (t.preach.(v), t.psum.(v))
  else
    let p = profile t v in
    (p.Paths.reached, p.Paths.sum)

(* A miss at [v] runs one bit-parallel BFS for [v] and the next sources,
   in index order from [v] round to [v - 1], that hold neither a table nor
   a memo entry — only dirty ones when [v] is dirty, since a board refresh
   then asks for dirty agents alone, and any when it is not (the first
   refresh asks for every agent).  Nothing is installed: a budgeted cache
   would evict the tables again within the same refresh. *)
let batch_profile t g v =
  if Graph.n g <> t.n then invalid_arg "Distcache.batch_profile: size mismatch";
  if Intvec.get t.memo_epoch v <> t.epoch then begin
    let multi =
      match t.multi with
      | Some m -> m
      | None ->
          let m = Paths.Multi.create t.n in
          t.multi <- Some m;
          m
    in
    let dirty_only = is_dirty t v in
    let wanted x =
      t.tables.(x) = None
      && Intvec.get t.memo_epoch x <> t.epoch
      && ((not dirty_only) || is_dirty t x)
    in
    let succ x = if x + 1 = t.n then 0 else x + 1 in
    let lanes = Array.make Paths.Multi.width v in
    let k = ref 1 and x = ref (succ v) in
    while !k < Paths.Multi.width && !x <> v do
      if wanted !x then begin
        lanes.(!k) <- !x;
        incr k
      end;
      x := succ !x
    done;
    let lanes = Array.sub lanes 0 !k in
    Array.iteri
      (fun i (p : Paths.profile) ->
        let x = lanes.(i) in
        Intvec.set t.memo_reached x p.reached;
        Intvec.set t.memo_sum x p.sum;
        Intvec.set t.memo_ecc x p.ecc;
        Intvec.set t.memo_epoch x t.epoch)
      (Paths.Multi.profiles multi g lanes)
  end;
  {
    Paths.reached = Intvec.get t.memo_reached v;
    sum = Intvec.get t.memo_sum v;
    ecc = Intvec.get t.memo_ecc v;
  }

let mark_changed t v = t.profiles.(v) <- None

(* Fold one rewritten entry of source [v]'s table, [old] to [nw] (either
   may be -1), into its incremental (reached, sum). *)
let note_aggregates t v old nw =
  if old >= 0 then begin
    t.preach.(v) <- t.preach.(v) - 1;
    t.psum.(v) <- t.psum.(v) - old
  end;
  if nw >= 0 then begin
    t.preach.(v) <- t.preach.(v) + 1;
    t.psum.(v) <- t.psum.(v) + nw
  end

(* Fresh BFS from [v] into [d] with the edge {a, b} treated as absent —
   the fallback path.  A committed deletion's CSR no longer holds the
   edge, so there the skip never fires. *)
let rebuild t csr v (d : Intvec.t) a b =
  let off = Csr.offsets csr and tg = Csr.targets csr in
  for x = 0 to t.n - 1 do
    Intvec.unsafe_set d x (-1)
  done;
  Intvec.set d v 0;
  Intvec.set t.queue 0 v;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = Intvec.unsafe_get t.queue !head in
    incr head;
    let du = Intvec.unsafe_get d u in
    for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
      let w = Intvec.unsafe_get tg i in
      if
        Intvec.unsafe_get d w < 0
        && not ((u = a && w = b) || (u = b && w = a))
      then begin
        Intvec.unsafe_set d w (du + 1);
        Intvec.unsafe_set t.queue !tail w;
        incr tail
      end
    done
  done

(* The books of a committed table that a rebuild replaced: its
   incremental aggregates are stale until the next [profile]. *)
let count_rebuild t v =
  t.rebuilt <- t.rebuilt + 1;
  t.pvalid.(v) <- false;
  mark_changed t v

(* Decrease-only BFS: the inserted edge gives [seed] the new distance
   [seed_dist]; improvements propagate outward in nondecreasing order, so
   each vertex is enqueued at most once and only the improved region is
   touched. *)
let repair_insert t csr v (d : Intvec.t) seed seed_dist =
  let off = Csr.offsets csr and tg = Csr.targets csr in
  let track = t.pvalid.(v) in
  if track then note_aggregates t v (Intvec.get d seed) seed_dist;
  Intvec.set d seed seed_dist;
  Intvec.set t.queue 0 seed;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = Intvec.unsafe_get t.queue !head in
    incr head;
    let du = Intvec.unsafe_get d u in
    for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
      let w = Intvec.unsafe_get tg i in
      let dw = Intvec.unsafe_get d w in
      if dw < 0 || dw > du + 1 then begin
        if track then note_aggregates t v dw (du + 1);
        Intvec.unsafe_set d w (du + 1);
        Intvec.unsafe_set t.queue !tail w;
        incr tail
      end
    done
  done;
  t.repaired <- t.repaired + 1;
  mark_changed t v

exception Too_many_affected

(* The deletion repair for the edge {near, far}, whose far endpoint
   (d.(far) = d.(near) + 1) has no other parent: [d] is patched in place,
   [note old nw] hears every entry rewritten, and the result is [true];
   past [threshold] affected vertices [d] is rebuilt instead, with no
   [note], and the result is [false].  The CSR may still hold the edge
   (see "Transient rows" above), and the repair never crosses it.  It
   keeps none of the cache's books. *)
let repair_delete t csr v (d : Intvec.t) ~near ~far ~note =
  let off = Csr.offsets csr and tg = Csr.targets csr in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let cand = t.cand and aff = t.aff in
  let aff_count = ref 0 in
  (try
     Intvec.set t.wave 0 far;
     Intvec.set cand far stamp;
     let wc = ref 1 in
     let level = ref (Intvec.get d far) in
     let wave = ref t.wave and next = ref t.wnext in
     while !wc > 0 do
       let nc = ref 0 in
       let w = !wave and nx = !next in
       for k = 0 to !wc - 1 do
         let x = Intvec.unsafe_get w k in
         (* survivor iff some neighbor one level down kept its distance;
            level [!level - 1] verdicts are final by the level ordering.
            [far] is not scanned: it has lost its only parent. *)
         let survives = ref false in
         let i = ref (Intvec.unsafe_get off x) in
         let row_end = if x = far then !i else Intvec.unsafe_get off (x + 1) in
         while (not !survives) && !i < row_end do
           let y = Intvec.unsafe_get tg !i in
           incr i;
           if Intvec.unsafe_get d y = !level - 1 && Intvec.unsafe_get aff y <> stamp
           then survives := true
         done;
         if not !survives then begin
           Intvec.unsafe_set aff x stamp;
           Intvec.unsafe_set t.queue !aff_count x;
           incr aff_count;
           if !aff_count > t.threshold then raise Too_many_affected;
           for i = Intvec.unsafe_get off x to Intvec.unsafe_get off (x + 1) - 1 do
             let y = Intvec.unsafe_get tg i in
             if Intvec.unsafe_get d y = !level + 1 && Intvec.unsafe_get cand y <> stamp
             then begin
               Intvec.unsafe_set cand y stamp;
               Intvec.unsafe_set nx !nc y;
               incr nc
             end
           done
         end
       done;
       let tmp = !wave in
       wave := !next;
       next := tmp;
       wc := !nc;
       incr level
     done;
     t.wave <- !wave;
     t.wnext <- !next;
     (* Recompute the affected region: Dial's algorithm seeded from each
        affected vertex's best non-affected neighbor.  Unaffected distances
        are already final; affected vertices never seeded and never relaxed
        are disconnected.  The bucket array persists across calls (empty
        outside this function); only the [lo .. hi] range it actually used
        is visited, so the scan is sized by the repair, not by n. *)
     let buckets = t.buckets in
     let maxb = t.n + 1 in
     let lo = ref max_int and hi = ref (-1) in
     for k = 0 to !aff_count - 1 do
       let x = Intvec.unsafe_get t.queue k in
       let skip = if x = far then near else -1 in
       let best = ref max_int in
       for i = Intvec.unsafe_get off x to Intvec.unsafe_get off (x + 1) - 1 do
         let y = Intvec.unsafe_get tg i in
         if
           Intvec.unsafe_get aff y <> stamp
           && y <> skip
           && Intvec.unsafe_get d y >= 0
           && Intvec.unsafe_get d y + 1 < !best
         then best := Intvec.unsafe_get d y + 1
       done;
       if !best <= maxb then begin
         note (Intvec.unsafe_get d x) !best;
         Intvec.unsafe_set d x !best;
         buckets.(!best) <- x :: buckets.(!best);
         if !best < !lo then lo := !best;
         if !best > !hi then hi := !best
       end
       else begin
         note (Intvec.unsafe_get d x) (-1);
         Intvec.unsafe_set d x (-1)
       end
     done;
     let s = ref !lo in
     while !s <= !hi do
       let bucket = buckets.(!s) in
       buckets.(!s) <- [];
       List.iter
         (fun x ->
           if Intvec.get d x = !s then
             for i = Intvec.unsafe_get off x to Intvec.unsafe_get off (x + 1) - 1 do
               let y = Intvec.unsafe_get tg i in
               let dy = Intvec.unsafe_get d y in
               if
                 Intvec.unsafe_get aff y = stamp
                 && (dy < 0 || dy > !s + 1)
                 && !s + 1 <= maxb
               then begin
                 note dy (!s + 1);
                 Intvec.unsafe_set d y (!s + 1);
                 buckets.(!s + 1) <- y :: buckets.(!s + 1);
                 if !s + 1 > !hi then hi := !s + 1
               end
             done)
         bucket;
       incr s
     done;
     true
   with Too_many_affected ->
     (* The level wave may have left entries in no bucket (buckets are only
        filled after the wave completes), so nothing to clean here. *)
     rebuild t csr v d near far;
     false)

let without_edge t g u x (row : Intvec.t) ~note =
  if Graph.n g <> t.n then invalid_arg "Distcache.without_edge: size mismatch";
  match t.tables.(u) with
  | None -> invalid_arg "Distcache.without_edge: no table"
  | Some base ->
      (* [x] is [u]'s neighbour, so [u] is its only parent *)
      if Intvec.get base x <> 1 then
        invalid_arg "Distcache.without_edge: not an edge";
      Intvec.blit ~src:base ~src_pos:0 ~dst:row ~dst_pos:0 ~len:t.n;
      repair_delete t (Graph.csr g) u row ~near:u ~far:x ~note

(* Classify ALL n sources as dirty/clean from the endpoint rows (see the
   header comment).  Either classifier marks everything dirty when an
   endpoint row is not resident.  An insertion reads the pre-primitive rows
   before the resident-table loop patches them. *)
let classify_insert t a b =
  if not t.dirty_every then begin
    match (t.tables.(a), t.tables.(b)) with
    | Some ra, Some rb ->
        for v = 0 to t.n - 1 do
          let da = Intvec.unsafe_get ra v and db = Intvec.unsafe_get rb v in
          let keep =
            (da < 0 && db < 0) || (da >= 0 && db >= 0 && abs (da - db) <= 1)
          in
          if not keep then mark_dirty t v
        done
    | _ -> mark_all_dirty t
  end

(* A deletion classifies in two halves around the resident-table loop.
   [snapshot_delete] copies the pre-primitive endpoint rows and returns the
   live ones ([None] when classification is moot or impossible); after the
   loop has repaired those pinned rows in place, [classify_delete] marks a
   source dirty iff the endpoints were at different distances from it and
   one of the two rows moved there (DESIGN.md §17 gives the proof). *)
let snapshot_delete t a b =
  if t.dirty_every then None
  else
    match (t.tables.(a), t.tables.(b)) with
    | Some ra, Some rb ->
        Intvec.blit ~src:ra ~src_pos:0 ~dst:t.snap_a ~dst_pos:0 ~len:t.n;
        Intvec.blit ~src:rb ~src_pos:0 ~dst:t.snap_b ~dst_pos:0 ~len:t.n;
        Some (ra, rb)
    | _ ->
        mark_all_dirty t;
        None

let classify_delete t (ra, rb) =
  for v = 0 to t.n - 1 do
    let da = Intvec.unsafe_get t.snap_a v
    and db = Intvec.unsafe_get t.snap_b v in
    if
      da <> db
      && (Intvec.unsafe_get ra v <> da || Intvec.unsafe_get rb v <> db)
    then mark_dirty t v
  done

let note_added t g a b =
  if Graph.n g <> t.n then invalid_arg "Distcache.note_added: size mismatch";
  t.epoch <- t.epoch + 1;
  mark_dirty t a;
  mark_dirty t b;
  classify_insert t a b;
  let csr = Graph.csr g in
  for k = 0 to t.res_count - 1 do
    let v = t.res_list.(k) in
    match t.tables.(v) with
    | None -> ()
    | Some d ->
        let da = Intvec.get d a and db = Intvec.get d b in
        if da < 0 && db < 0 then t.kept <- t.kept + 1
        else if da >= 0 && db >= 0 && abs (da - db) <= 1 then
          t.kept <- t.kept + 1
        else begin
          (* far side strictly improves through the new edge *)
          let near_d, far =
            if db < 0 then (da, b)
            else if da < 0 then (db, a)
            else if da <= db then (da, b)
            else (db, a)
          in
          repair_insert t csr v d far (near_d + 1)
        end
  done

let note_removed t g a b =
  if Graph.n g <> t.n then invalid_arg "Distcache.note_removed: size mismatch";
  t.epoch <- t.epoch + 1;
  mark_dirty t a;
  mark_dirty t b;
  let rows = snapshot_delete t a b in
  let csr = Graph.csr g in
  let off = Csr.offsets csr and tg = Csr.targets csr in
  for k = 0 to t.res_count - 1 do
    let v = t.res_list.(k) in
    match t.tables.(v) with
    | None -> ()
    | Some d ->
        let da = Intvec.get d a and db = Intvec.get d b in
        if da < 0 && db < 0 then t.kept <- t.kept + 1
        else if da = db then t.kept <- t.kept + 1
        else if da < 0 || db < 0 then begin
          (* impossible for a well-formed pre-delete state (the edge made
             the endpoints' levels differ by at most one); be safe under
             fault injection *)
          rebuild t csr v d a b;
          count_rebuild t v
        end
        else begin
          let near, far = if da < db then (a, b) else (b, a) in
          let fd = Intvec.get d far in
          (* fast-keep: another parent survives at the far level - 1 *)
          let has_parent = ref false in
          let i = ref (Intvec.get off far) in
          let row_end = Intvec.get off (far + 1) in
          while (not !has_parent) && !i < row_end do
            if Intvec.get d (Intvec.get tg !i) = fd - 1 then has_parent := true;
            incr i
          done;
          if !has_parent then t.kept <- t.kept + 1
          else
            let note =
              if t.pvalid.(v) then note_aggregates t v else fun _ _ -> ()
            in
            if repair_delete t csr v d ~near ~far ~note then begin
              t.repaired <- t.repaired + 1;
              mark_changed t v
            end
            else count_rebuild t v
        end
  done;
  Option.iter (classify_delete t) rows
