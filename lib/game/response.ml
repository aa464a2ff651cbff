module Q = Ncg_rational.Q

type evaluated = { move : Move.t; before : Cost.t; after : Cost.t }

let exhaustive_limit = 20

(* Subsets of [items] as a sequence, smallest first within the natural
   binary-counter order.  |items| is bounded by [exhaustive_limit]. *)
let subsets items =
  let arr = Array.of_list items in
  let k = Array.length arr in
  let count = 1 lsl k in
  Seq.init count (fun mask ->
      let rec collect i acc =
        if i < 0 then acc
        else collect (i - 1) (if mask land (1 lsl i) <> 0 then arr.(i) :: acc else acc)
      in
      collect (k - 1) [])

(* All size-k sublists of [items], generated directly. *)
let rec combinations items size =
  if size = 0 then Seq.return []
  else
    match items with
    | [] -> Seq.empty
    | x :: rest ->
        Seq.append
          (Seq.map (fun c -> x :: c) (combinations rest (size - 1)))
          (fun () -> combinations rest size ())

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0
  else
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1

let check_exhaustive what k =
  if k > exhaustive_limit then
    invalid_arg
      (Printf.sprintf
         "Response: %s strategy space has %d candidate partners (> %d); \
          exhaustive best response refused"
         what k exhaustive_limit)

let swap_targets model g u =
  let host = model.Model.host in
  List.filter
    (fun v -> v <> u && (not (Graph.has_edge g u v)) && Host.allows host u v)
    (Graph.vertices g)

let candidates model g u =
  let host = model.Model.host in
  match model.Model.game with
  | Model.Sg | Model.Asg ->
      let removable =
        if Model.uses_ownership model then Graph.owned_neighbors g u
        else Graph.neighbors g u
      in
      let targets = swap_targets model g u in
      List.to_seq removable
      |> Seq.concat_map (fun x ->
             List.to_seq targets
             |> Seq.map (fun y -> Move.Swap { agent = u; remove = x; add = y }))
  | Model.Gbg ->
      let removable = Graph.owned_neighbors g u in
      let targets = swap_targets model g u in
      let swaps =
        List.to_seq removable
        |> Seq.concat_map (fun x ->
               List.to_seq targets
               |> Seq.map (fun y ->
                      Move.Swap { agent = u; remove = x; add = y }))
      in
      let buys =
        List.to_seq targets
        |> Seq.map (fun y -> Move.Buy { agent = u; target = y })
      in
      let deletes =
        List.to_seq removable
        |> Seq.map (fun x -> Move.Delete { agent = u; target = x })
      in
      Seq.append deletes (Seq.append swaps buys)
  | Model.Bg ->
      (* Partners u may own an edge to: anyone allowed by the host except
         vertices already linked to u by an edge owned elsewhere (a parallel
         edge only ever adds cost, so excluding it loses no improving or
         best-response move). *)
      let partners =
        List.filter
          (fun v ->
            v <> u
            && Host.allows host u v
            && not (Graph.has_edge g u v && not (Graph.owns g u v)))
          (Graph.vertices g)
      in
      check_exhaustive "Buy Game" (List.length partners);
      let current = List.sort compare (Graph.owned_neighbors g u) in
      subsets partners
      |> Seq.filter (fun s -> List.sort compare s <> current)
      |> Seq.map (fun s -> Move.Set_own_edges { agent = u; targets = s })
  | Model.Bilateral ->
      let partners =
        List.filter
          (fun v -> v <> u && Host.allows host u v)
          (Graph.vertices g)
      in
      check_exhaustive "bilateral" (List.length partners);
      let current = List.sort compare (Graph.neighbors g u) in
      subsets partners
      |> Seq.filter (fun s -> List.sort compare s <> current)
      |> Seq.map (fun s -> Move.Set_neighbors { agent = u; targets = s })

let multi_swap_candidates model g u =
  let enumerate own make =
    let partners = swap_targets model g u in
    let d = List.length own in
    let p = List.length partners in
    let total =
      List.fold_left
        (fun acc k -> acc + (binomial d k * binomial p k))
        0
        (List.init (d + 1) (fun k -> k))
    in
    if d > 8 || total > 1 lsl 20 then
      invalid_arg
        (Printf.sprintf
           "Response: multi-swap strategy space has %d candidates; \
            exhaustive enumeration refused"
           total);
    (* Keep any subset of the current edges, replace the rest by fresh
       targets: all strategies S* with |S*| = |S|. *)
    subsets own
    |> Seq.concat_map (fun kept ->
           let missing = d - List.length kept in
           combinations partners missing
           |> Seq.map (fun fresh -> kept @ fresh))
    |> Seq.filter (fun targets ->
           List.sort compare targets <> List.sort compare own)
    |> Seq.map make
  in
  match model.Model.game with
  | Model.Asg ->
      enumerate (Graph.owned_neighbors g u) (fun targets ->
          Move.Set_own_edges { agent = u; targets })
  | Model.Sg ->
      (* In the Swap Game every incident edge is swappable, so a multi-swap
         replaces any subset of the agent's incident edges. *)
      enumerate (Graph.neighbors g u) (fun targets ->
          Move.Set_neighbors { agent = u; targets })
  | Model.Gbg | Model.Bg | Model.Bilateral ->
      invalid_arg "Response.multi_swap_candidates: (A)SG only"

let agent_cost ?ws model g u =
  match ws with
  | Some ws -> Agents.cost_ws ws model g u
  | None -> Agents.cost model g u

let evaluate model g move =
  let u = Move.agent move in
  let before = Agents.cost model g u in
  let after = Move.with_applied g move (fun g -> Agents.cost model g u) in
  { move; before; after }

let blockers model g move =
  match (model.Model.game, move) with
  | Model.Bilateral, Move.Set_neighbors { agent; targets } ->
      let old = Graph.neighbors g agent in
      let added = List.filter (fun v -> not (List.mem v old)) targets in
      if added = [] then []
      else begin
        let unit_price = Model.unit_price model in
        let before = List.map (fun v -> (v, Agents.cost model g v)) added in
        Move.with_applied g move (fun g ->
            List.filter_map
              (fun (v, before_cost) ->
                let after_cost = Agents.cost model g v in
                if Cost.le ~unit_price after_cost before_cost then None
                else Some v)
              before)
      end
  | _, _ -> []

let feasible model g move = blockers model g move = []

(* The mover's cost is computed once per scan, and consent is asked only
   of candidates that improve it: in the bilateral game [blockers] costs
   two BFS per added neighbour, the scan's dominant term (DESIGN.md §9). *)
let improving_moves ?ws model g u =
  let unit_price = Model.unit_price model in
  let before = agent_cost ?ws model g u in
  Seq.filter_map
    (fun move ->
      let after =
        Move.with_applied g move (fun g -> agent_cost ?ws model g u)
      in
      if Cost.lt ~unit_price after before && feasible model g move then
        Some { move; before; after }
      else None)
    (candidates model g u)
  |> List.of_seq

let least_cost model = function
  | [] -> []
  | first :: _ as all ->
      let unit_price = Model.unit_price model in
      let best =
        List.fold_left
          (fun acc e ->
            if Cost.lt ~unit_price e.after acc then e.after else acc)
          first.after all
      in
      List.filter (fun e -> Cost.equal ~unit_price e.after best) all

let best_moves ?ws model g u = least_cost model (improving_moves ?ws model g u)

let is_unhappy ?ws model g u =
  let unit_price = Model.unit_price model in
  let before = agent_cost ?ws model g u in
  let improving move =
    Cost.lt ~unit_price
      (Move.with_applied g move (fun g -> agent_cost ?ws model g u))
      before
    && feasible model g move
  in
  Seq.exists improving (candidates model g u)

let unhappy_agents model g =
  let ws = Paths.Workspace.create (Graph.n g) in
  List.filter (is_unhappy ~ws model g) (Graph.vertices g)

let is_stable model g = unhappy_agents model g = []

(* Membership test for the [candidates] enumeration: accepts a move iff the
   enumeration over the current state would generate it.  Must stay at
   least as strict as [candidates] — the fast path seeds best-response
   thresholds with re-validated witness moves, which is only sound when the
   witness is guaranteed to reappear during the enumeration. *)
let admissible model g move =
  let host = model.Model.host in
  let u = Move.agent move in
  let buy_ok v = v <> u && (not (Graph.has_edge g u v)) && Host.allows host u v in
  match (model.Model.game, move) with
  | (Model.Sg | Model.Asg | Model.Gbg), Move.Swap { remove; add; _ } ->
      buy_ok add
      && (if Model.uses_ownership model then Graph.owns g u remove
          else Graph.has_edge g u remove)
  | Model.Gbg, Move.Buy { target; _ } -> buy_ok target
  | Model.Gbg, Move.Delete { target; _ } -> Graph.owns g u target
  | Model.Bg, Move.Set_own_edges { targets; _ } ->
      let sorted = List.sort_uniq compare targets in
      List.length sorted = List.length targets
      && List.for_all
           (fun v ->
             v <> u
             && Host.allows host u v
             && not (Graph.has_edge g u v && not (Graph.owns g u v)))
           targets
      && sorted <> List.sort compare (Graph.owned_neighbors g u)
  | Model.Bilateral, Move.Set_neighbors { targets; _ } ->
      let sorted = List.sort_uniq compare targets in
      List.length sorted = List.length targets
      && List.for_all (fun v -> v <> u && Host.allows host u v) targets
      && sorted <> List.sort compare (Graph.neighbors g u)
  | ( (Model.Sg | Model.Asg | Model.Gbg | Model.Bg | Model.Bilateral),
      ( Move.Swap _ | Move.Buy _ | Move.Delete _ | Move.Set_own_edges _
      | Move.Set_neighbors _ ) ) ->
      false

(* ------------------------------------------------------------------ *)
(* Fast path                                                           *)
(* ------------------------------------------------------------------ *)

(* The fast evaluator produces results bit-identical to the naive
   functions above (the differential suite pins this), but avoids most of
   their BFS work:

   - a cache of single-source distance tables [d_G(v, .)], filled lazily
     and, in the engine, kept across steps;
   - per removable edge {u, x}, the row [d_{G-ux}(u, .)], which scores
     the deletion and is shared by every swap removing that same edge:
     [u]'s table patched by the cache's deletion repair with the edge
     treated as absent, so it costs the region whose shortest paths all
     used the edge, and the graph is not edited;
   - buys and swaps scored exactly from [u]'s base row b alone (d_G for a
     buy, d_{G-ux} for a swap): d'(v) = min (b v, 1 + d_{G-u}(y, v)), and
     {!Paths.Workspace.profile_with_edge} runs the second term's BFS from
     [y] only through the vertices the new edge brings closer — no
     target row is read or filled, and the graph is not edited;
   - the kernel is handed the candidate's admission budget and proves
     most rejections itself: under SUM it stops once the gain still
     possible cannot meet the budget, under MAX before any BFS when no
     distance can fall far enough;
   - the memoized buy profile (a lower bound on every swap adding the
     same edge) rejects hopeless swaps before their kernel runs or their
     minus row is built. *)
module Fast = struct
  type ctx = {
    model : Model.t;
    g : Graph.t;
    ws : Paths.Workspace.t;
    unit_price : Q.t;
    cache : Distcache.t;  (* d_G(v, .), -1 = unreachable *)
    mutable profile_memo : int * Paths.profile option array;
        (* the last scan's agent and its per-target buy profiles, each
           exact once known.  Tables never change while a ctx is alive
           (transient evaluations restore the graph), so consecutive scans
           of the same agent — the mover's unhappiness probe followed by
           its best-response scan — share one memo instead of recomputing
           every profile. *)
  }

  let of_cache ws model g cache =
    if Distcache.n cache <> Graph.n g then
      invalid_arg "Response.Fast.of_cache: cache size mismatch";
    {
      model;
      g;
      ws;
      unit_price = Model.unit_price model;
      cache;
      profile_memo = (-1, [||]);
    }

  (* Accepts only [true], for [benchmark/replica.ml] until ROADMAP item 1b. *)
  let set_prefilter (_ : ctx) on =
    if not on then
      invalid_arg
        "Response.Fast.set_prefilter: the admission bounds always run"

  let table ctx v = Distcache.ensure ctx.cache ~ws:ctx.ws ctx.g v

  let cost ctx u =
    ignore (table ctx u);
    match ctx.model.Model.dist_mode with
    | Model.Sum ->
        (* [cost_key] comes here for every dirty agent with a resident
           table: read the incrementally maintained aggregates instead of
           forcing an O(n) profile rescan per repaired row *)
        let reached, sum = Distcache.sum_profile ctx.cache u in
        if reached < Graph.n ctx.g then Cost.disconnected
        else
          Cost.connected
            ~edge_units:(Model.edge_units ctx.model ctx.g u)
            ~dist:sum
    | Model.Max ->
        Agents.of_profile ctx.model ctx.g u
          (Distcache.profile ctx.cache u)
          ~with_edges:true

  (* A cost as the cross-multiplied integer key [e*p + d*q] (exactly what
     {!Cost.compare} compares), with [max_int] for Disconnected (which
     {!Cost.compare} places above every finite cost). *)
  let cross ctx = function
    | Cost.Disconnected -> max_int
    | Cost.Connected { edge_units; dist } ->
        let { Q.num; den } = ctx.unit_price in
        (edge_units * num) + (dist * den)

  (* The agent's current cost as the key the selection layer buckets on.
     A resident table answers in O(1); any other agent's profile comes
     from the cache's bit-parallel batch, so a board refresh fills no
     table. *)
  let cost_key ctx u =
    cross ctx
      (if Distcache.get ctx.cache u <> None then cost ctx u
       else
         Agents.of_profile ctx.model ctx.g u
           (Distcache.batch_profile ctx.cache ctx.g u)
           ~with_edges:true)

  (* Admission thresholds are keys: a candidate is admitted when its key
     is at most the threshold.  [max_int] admits any finite cost (the
     mover is currently disconnected, so any reconnecting move
     improves). *)
  let improve_threshold ctx before =
    let c = cross ctx before in
    if c = max_int then max_int else c - 1

  (* Largest distance a candidate paying [edge_units] may have while still
     meeting [threshold]: [max_int] for no cutoff, negative when no
     distance can. *)
  let dist_budget ctx ~edge_units threshold =
    if threshold = max_int then max_int
    else
      let { Q.num; den } = ctx.unit_price in
      let b = threshold - (edge_units * num) in
      if b < 0 then -1 else b / den

  let bound_of ctx budget =
    match ctx.model.Model.dist_mode with
    | Model.Sum -> Paths.Workspace.Sum_at_most budget
    | Model.Max -> Paths.Workspace.Ecc_at_most budget

  (* Exact evaluation by transient application, with the BFS aborted as
     soon as the candidate provably misses the threshold.  Only the
     exponential games' multi-edge strategies come through here. *)
  let evaluate_bounded ctx move ~before ~threshold =
    Move.with_applied ctx.g move (fun g ->
        let u = Move.agent move in
        let edge_units = Model.edge_units ctx.model g u in
        let bound = bound_of ctx (dist_budget ctx ~edge_units threshold) in
        match Paths.Workspace.profile_bounded ctx.ws g u bound with
        | Some p when p.Paths.reached = Graph.n g ->
            Some
              {
                move;
                before;
                after = Agents.of_profile ctx.model g u p ~with_edges:true;
              }
        | Some _ | None -> None)

  (* {2 Base rows}

     A base row is the mover's own table, or one of its minus rows.  Its
     reached count, distance sum and level histogram feed the
     {!Paths.Workspace.profile_with_edge} kernel. *)
  type row_stats = {
    rs_reached : int;
    rs_sum : int;  (* Σ d(v) over the reached vertices *)
    rs_hist : int array;  (* rs_hist.(l) = #{v : d(v) = l}, l in 0..ecc *)
  }

  let row_stats ~n (row : Intvec.t) =
    let reached = ref 0 and sum = ref 0 and ecc = ref 0 in
    for v = 0 to n - 1 do
      let d = Intvec.unsafe_get row v in
      if d >= 0 then begin
        incr reached;
        sum := !sum + d;
        if d > !ecc then ecc := d
      end
    done;
    let hist = Array.make (!ecc + 1) 0 in
    for v = 0 to n - 1 do
      let d = Intvec.unsafe_get row v in
      if d >= 0 then hist.(d) <- hist.(d) + 1
    done;
    { rs_reached = !reached; rs_sum = !sum; rs_hist = hist }

  let profile_of_stats st =
    {
      Paths.reached = st.rs_reached;
      sum = st.rs_sum;
      ecc = Array.length st.rs_hist - 1;
    }

  (* Per-agent scan state: the agent's current cost and edge units, the
     lazily computed stats of its base row, and the lazily filled
     [d_{G-ux}(u, .)] rows, one per removable edge, shared by the deletion
     and all swaps removing that edge. *)
  type scan = {
    ctx : ctx;
    u : int;
    before : Cost.t;
    base_units : int;
    mutable base_stats : row_stats option;
    mutable minus : (int * (Intvec.t * row_stats)) list;
        (* per removable edge: its row (workspace scratch row number
           [List.length] at fill time, so the scan allocates no row) and
           the row's stats *)
    mutable buy_profiles : Paths.profile option array;
        (* per target, memoized for the scan: the graph is unchanged while
           a scan runs, so the buy profile of a target is scan-constant.
           Lazily sized; [[||]] until the first lookup. *)
    mutable dropped : Bytes.t;
        (* per target, non-zero once this scan's buy bound rejected one of
           its swaps: [walk_candidates] skips it from then on.  Lazily
           sized like [buy_profiles], but never shared with another
           scan, whose budgets may be looser. *)
  }

  let make_scan ctx u =
    let buy_profiles =
      match ctx.profile_memo with a, memo when a = u -> memo | _ -> [||]
    in
    {
      ctx;
      u;
      before = cost ctx u;
      base_units = Model.edge_units ctx.model ctx.g u;
      base_stats = None;
      minus = [];
      buy_profiles;
      dropped = Bytes.empty;
    }

  let ensure_profiles s =
    if Array.length s.buy_profiles = 0 then begin
      s.buy_profiles <- Array.make (Graph.n s.ctx.g) None;
      s.ctx.profile_memo <- (s.u, s.buy_profiles)
    end

  let base_stats s =
    match s.base_stats with
    | Some st -> st
    | None ->
        let st = row_stats ~n:(Graph.n s.ctx.g) (table s.ctx s.u) in
        s.base_stats <- Some st;
        st

  (* The row of {u, x} is [u]'s table patched by the cache's deletion
     repair, and its stats are [u]'s adjusted by every entry the repair
     rewrites, so both cost the region whose shortest paths all used the
     edge.  A repair past the cache's threshold is a full BFS instead,
     whose stats are rescanned. *)
  let minus s x =
    match List.assoc_opt x s.minus with
    | Some m -> m
    | None ->
        let ctx = s.ctx in
        let row = Paths.Workspace.row ctx.ws (List.length s.minus) in
        let base = base_stats s in
        let reached = ref base.rs_reached and sum = ref base.rs_sum in
        let hist = ref (Array.copy base.rs_hist) in
        let note old nw =
          if old >= 0 then begin
            decr reached;
            sum := !sum - old;
            !hist.(old) <- !hist.(old) - 1
          end;
          if nw >= 0 then begin
            incr reached;
            sum := !sum + nw;
            if nw >= Array.length !hist then begin
              let h = Array.make (2 * nw) 0 in
              Array.blit !hist 0 h 0 (Array.length !hist);
              hist := h
            end;
            !hist.(nw) <- !hist.(nw) + 1
          end
        in
        let st =
          if Distcache.without_edge ctx.cache ctx.g s.u x row ~note then begin
            (* level 0 holds [u] alone, so the loop stops *)
            let top = ref (Array.length !hist - 1) in
            while !hist.(!top) = 0 do
              decr top
            done;
            {
              rs_reached = !reached;
              rs_sum = !sum;
              rs_hist = Array.sub !hist 0 (!top + 1);
            }
          end
          else row_stats ~n:(Graph.n ctx.g) row
        in
        let m = (row, st) in
        s.minus <- (x, m) :: s.minus;
        m

  let minus_row ctx u x = minus (make_scan ctx u) x

  (* The exact profile after adding {u, y} to the graph [row] was measured
     in — no target row read, nothing filled — or [None] once the kernel
     proves its distance aggregate (the sum under SUM, the eccentricity
     under MAX) exceeds [budget] ([max_int]: no cutoff). *)
  let with_edge s row st ~budget y =
    Paths.Workspace.profile_with_edge s.ctx.ws s.ctx.g row
      ~reached:st.rs_reached ~sum:st.rs_sum ~hist:st.rs_hist
      ~bound:(bound_of s.ctx budget) y

  let dist_of ctx (p : Paths.profile) =
    match ctx.model.Model.dist_mode with
    | Model.Sum -> p.Paths.sum
    | Model.Max -> p.Paths.ecc

  (* [true] when the profile leaves a vertex unreachable or its active
     distance aggregate exceeds [budget]. *)
  let misses ctx p ~budget =
    p.Paths.reached < Graph.n ctx.g || dist_of ctx p > budget

  (* The exact profile of buying {u, y}, memoized for the agent, or [None]
     once the kernel proves it misses [budget].  A proof answers its own
     budget only, so it is not memoized: a later scan of the same agent
     may run at a looser threshold, and a swap's budget is one edge unit
     looser than a buy's. *)
  let buy_profile s y ~budget =
    ensure_profiles s;
    match s.buy_profiles.(y) with
    | Some _ as known -> known
    | None ->
        let p = with_edge s (table s.ctx s.u) (base_stats s) ~budget y in
        s.buy_profiles.(y) <- p;
        p

  let drop s y =
    if Bytes.length s.dropped = 0 then
      s.dropped <- Bytes.make (Graph.n s.ctx.g) '\000';
    Bytes.set s.dropped y '\001'

  let dropped s y =
    Bytes.length s.dropped > 0 && Bytes.unsafe_get s.dropped y <> '\000'

  (* Admit an exactly known profile against the budget. *)
  let admit s move ~edge_units p ~budget =
    if misses s.ctx p ~budget then None
    else
      Some
        {
          move;
          before = s.before;
          after = Cost.connected ~edge_units ~dist:(dist_of s.ctx p);
        }

  (* The per-shape candidate tests below return [Some e] iff the
     candidate's exact cost meets [threshold]; every admitted evaluation
     is exact, every rejection is proved.  They take the candidate as
     bare ints and only allocate the [Move.t] record on the (rare) paths
     that survive the rejections: the scan visits thousands of candidates
     per step and the constructor-per-candidate allocation was a
     measurable share of the step loop's minor-GC pressure. *)

  let try_buy s ~y ~threshold =
    let edge_units = s.base_units + 1 in
    let budget = dist_budget s.ctx ~edge_units threshold in
    if budget < 0 then None
    else
      match buy_profile s y ~budget with
      | None -> None
      | Some p ->
          admit s (Move.Buy { agent = s.u; target = y }) ~edge_units p ~budget

  let try_delete s ~x ~threshold =
    let edge_units = s.base_units - 1 in
    let budget = dist_budget s.ctx ~edge_units threshold in
    if budget < 0 then None
    else
      admit s
        (Move.Delete { agent = s.u; target = x })
        ~edge_units
        (profile_of_stats (snd (minus s x)))
        ~budget

  (* A swap keeps [u]'s edge units, and its profile is exactly the minus
     row of {u, x} with the edge {u, y} added. *)
  let score_swap s ~x ~y (row, st) ~budget =
    match with_edge s row st ~budget y with
    | None -> None
    | Some p ->
        admit s
          (Move.Swap { agent = s.u; remove = x; add = y })
          ~edge_units:s.base_units p ~budget

  let try_swap s ~x ~y ~threshold =
    let ctx = s.ctx in
    let budget = dist_budget ctx ~edge_units:s.base_units threshold in
    if budget < 0 then None
    else
      (* The swap's distance profile is pointwise >= the pure buy profile
         of the same target — the removal only lengthens paths, and
         reconnects nothing — so a target whose buy already misses the
         budget is out.  Memoized per target, amortized O(1) over the
         removable edges; checked before the minus row so an edge whose
         every target dies here never has its row built. *)
      match buy_profile s y ~budget with
      | Some p when not (misses ctx p ~budget) ->
          let (row, st) as m = minus s x in
          if st.rs_reached < Graph.n ctx.g && Intvec.get row y >= 0 then
            (* removing {u, x} disconnects: a target still reachable from
               [u] in G - ux leaves the far side unreachable after the
               swap *)
            None
          else score_swap s ~x ~y m ~budget
      | Some _ | None ->
          drop s y;
          None

  let try_candidate s move ~threshold =
    let ctx = s.ctx in
    match move with
    | Move.Buy { target = y; _ } -> try_buy s ~y ~threshold
    | Move.Delete { target = x; _ } -> try_delete s ~x ~threshold
    | Move.Swap { remove = x; add = y; _ } -> try_swap s ~x ~y ~threshold
    | Move.Set_own_edges _ | Move.Set_neighbors _ -> (
        (* consent last: a blocked move must not tighten a threshold *)
        match evaluate_bounded ctx move ~before:s.before ~threshold with
        | Some _ as hit when feasible ctx.model ctx.g move -> hit
        | Some _ | None -> None)

  (* [candidates] as a direct callback iteration, in exactly the same
     order, less the candidates no budget left in the scan can admit.
     The scan visits every candidate of an agent thousands of times per
     run, so candidates reach the split helpers as bare ints from plain
     loops over an array: no per-candidate closure, [Seq] node or
     [Move.t] allocation, which measurably dominate once the
     per-candidate admission work is O(1).  After each removable edge's
     swaps, the targets the buy bound rejected ([dropped]) leave the
     array, order kept.  A scan's threshold only tightens, and at one
     threshold a buy's budget is below a swap's (one more edge unit),
     so every later swap or buy to such a target is rejected too and
     skipping it changes no result.  The exponential games keep the
     [Seq] path. *)
  let walk_candidates s ~delete ~swap ~buy ~fallback =
    let model = s.ctx.model and g = s.ctx.g and u = s.u in
    (* the swaps, then how many targets are still live *)
    let swaps removable targets =
      let live = ref (Array.length targets) in
      List.iter
        (fun x ->
          let kept = ref 0 in
          for i = 0 to !live - 1 do
            let y = targets.(i) in
            swap x y;
            if not (dropped s y) then begin
              targets.(!kept) <- y;
              incr kept
            end
          done;
          live := !kept)
        removable;
      !live
    in
    match model.Model.game with
    | Model.Sg | Model.Asg ->
        let removable =
          if Model.uses_ownership model then Graph.owned_neighbors g u
          else Graph.neighbors g u
        in
        ignore (swaps removable (Array.of_list (swap_targets model g u)))
    | Model.Gbg ->
        let removable = Graph.owned_neighbors g u in
        let targets = Array.of_list (swap_targets model g u) in
        List.iter delete removable;
        let live = swaps removable targets in
        for i = 0 to live - 1 do
          buy targets.(i)
        done
    | Model.Bg | Model.Bilateral -> Seq.iter fallback (candidates model g u)

  exception Found of evaluated

  let find_improving ctx u =
    let s = make_scan ctx u in
    let threshold = improve_threshold ctx s.before in
    let hit = function
      | Some e -> raise_notrace (Found e)
      | None -> ()
    in
    match
      walk_candidates s
        ~delete:(fun x -> hit (try_delete s ~x ~threshold))
        ~swap:(fun x y -> hit (try_swap s ~x ~y ~threshold))
        ~buy:(fun y -> hit (try_buy s ~y ~threshold))
        ~fallback:(fun m -> hit (try_candidate s m ~threshold))
    with
    | () -> None
    | exception Found e -> Some e

  let is_unhappy ctx u = find_improving ctx u <> None

  let improving_moves ctx u =
    let s = make_scan ctx u in
    let threshold = improve_threshold ctx s.before in
    let acc = ref [] in
    let keep = function Some e -> acc := e :: !acc | None -> () in
    walk_candidates s
      ~delete:(fun x -> keep (try_delete s ~x ~threshold))
      ~swap:(fun x y -> keep (try_swap s ~x ~y ~threshold))
      ~buy:(fun y -> keep (try_buy s ~y ~threshold))
      ~fallback:(fun m -> keep (try_candidate s m ~threshold));
    List.rev !acc

  let revalidate ctx move =
    if not (admissible ctx.model ctx.g move) then None
    else
      let s = make_scan ctx (Move.agent move) in
      try_candidate s move ~threshold:(improve_threshold ctx s.before)

  (* Fault-injection hook for the shadow sentinel's own tests: when armed,
     the [after]-th subsequent [best_moves] call returns a deliberately
     corrupted list (a hidden tie, or a duplicated singleton) and the hook
     disarms itself.  Never armed outside the chaos/sentinel suites. *)
  let chaos_countdown = ref None

  let chaos_corrupt_best_moves ~after =
    if after < 0 then invalid_arg "Response.Fast.chaos_corrupt_best_moves";
    chaos_countdown := Some after

  let chaos_reset () = chaos_countdown := None

  let chaos_maybe_corrupt result =
    match !chaos_countdown with
    | None -> result
    | Some k when k > 0 ->
        chaos_countdown := Some (k - 1);
        result
    | Some _ -> (
        chaos_countdown := None;
        match result with
        | [] -> []
        | [ e ] -> [ e; e ]
        | moves ->
            (* hide the final tie — the classic fast-path bug class *)
            let n = List.length moves in
            List.filteri (fun i _ -> i < n - 1) moves)

  let best_moves ?prior ctx u =
    let s = make_scan ctx u in
    let improve = improve_threshold ctx s.before in
    (* Seed the admission threshold with the re-verified witness move:
       [admissible] guarantees the witness reappears in the enumeration
       below, so no tie of the true best response can be pruned. *)
    let seed =
      match prior with
      | Some m when admissible ctx.model ctx.g m -> (
          match try_candidate s m ~threshold:improve with
          | Some e -> cross ctx e.after
          | None -> improve)
      | Some _ | None -> improve
    in
    let best = ref [] and threshold = ref seed in
    let keep = function
      | None -> ()
      | Some e ->
          let c = cross ctx e.after in
          (match !best with
          | b :: _ when cross ctx b.after = c -> best := e :: !best
          | _ -> best := [ e ]);
          threshold := c
    in
    walk_candidates s
      ~delete:(fun x -> keep (try_delete s ~x ~threshold:!threshold))
      ~swap:(fun x y -> keep (try_swap s ~x ~y ~threshold:!threshold))
      ~buy:(fun y -> keep (try_buy s ~y ~threshold:!threshold))
      ~fallback:(fun m -> keep (try_candidate s m ~threshold:!threshold));
    chaos_maybe_corrupt (List.rev !best)
end
