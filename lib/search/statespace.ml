type successor_rule = All_improving | Best_responses

type cycle = { start : Graph.t; moves : Move.t list }

type exploration = {
  explored : int;
  stable : Graph.t list;
  best_response_stable : bool;
  cycle : cycle option;
  truncated : bool;
}

(* The outgoing moves of a state, each tagged when it is one of its
   agent's best responses: every improving move under [All_improving],
   only the tagged ones under [Best_responses].  Each agent's improving
   moves are scored once; [Response.least_cost] keeps its entries in
   order and shares them, so one pass reads the tags off. *)
let scored_moves rule model g =
  List.concat_map
    (fun u ->
      let all = Response.improving_moves model g u in
      let best = ref (Response.least_cost model all) in
      List.filter_map
        (fun e ->
          let tagged =
            match !best with
            | b :: rest when b == e ->
                best := rest;
                true
            | _ -> false
          in
          if tagged || rule = All_improving then Some (e.Response.move, tagged)
          else None)
        all)
    (Graph.vertices g)

(* A growable off-heap int buffer, so a region's arcs cost the GC
   nothing. *)
type buf = { mutable data : Intvec.t; mutable len : int }

let buf () = { data = Intvec.create 1024; len = 0 }

let push b x =
  if b.len = Intvec.dim b.data then begin
    let data = Intvec.create (2 * b.len) in
    Intvec.blit ~src:b.data ~src_pos:0 ~dst:data ~dst_pos:0 ~len:b.len;
    b.data <- data
  end;
  Intvec.unsafe_set b.data b.len x;
  b.len <- b.len + 1

let get b i = Intvec.get b.data i

(* The walk's record of the region, by state id (ids follow admission
   order, which is also expansion order).  [roots] holds each root's id in
   sequence order, or -1 when the budget kept it out.  State i's arcs are
   entries [off(i)] to [off(i+1) - 1] of [arcs], one per move of
   [scored_moves] in order, each [2 * target + tag]: the target's id, or
   -1 when the budget kept the target out, and 1 when the move is a best
   response.  [parent(i)] is the state whose arc admitted i, -1 for a
   root. *)
type region = {
  sinks : Graph.t list;  (* in admission order *)
  over_budget : bool;
  roots : buf;
  off : buf;
  arcs : buf;
  parent : buf;
}

let target word = word asr 1
let tagged word = word land 1 = 1

(* The one state-space walk: breadth-first from each root in turn, taking
   the next root only once the queue runs dry, and admitting at most
   [max_states] distinct states. *)
let walk ~max_states rule model roots =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let state_key = Canonical.state_key ~owned:(Model.uses_ownership model) in
  let queue = Queue.create () in
  let off = buf () and arcs = buf () and parent = buf ()
  and root_ids = buf () in
  let sinks = ref [] and over_budget = ref false in
  let admit ~from g =
    let key = state_key g in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None when Hashtbl.length ids >= max_states ->
        over_budget := true;
        -1
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.replace ids key id;
        push parent from;
        Queue.add (Graph.copy g) queue;
        id
  in
  let expand g =
    let id = off.len in
    push off arcs.len;
    match scored_moves rule model g with
    | [] -> sinks := g :: !sinks
    | moves ->
        List.iter
          (fun (move, best) ->
            let token = Move.apply g move in
            push arcs ((2 * admit ~from:id g) + Bool.to_int best);
            Move.undo g token)
          moves
  in
  Seq.iter
    (fun root ->
      push root_ids (admit ~from:(-1) root);
      while not (Queue.is_empty queue) do
        expand (Queue.pop queue)
      done)
    roots;
  push off arcs.len;
  {
    sinks = List.rev !sinks;
    over_budget = !over_budget;
    roots = root_ids;
    off;
    arcs;
    parent;
  }

(* A directed cycle among the recorded states, as the closed walk of its
   state ids [first; ...; first].  Iterative three-colour DFS from every
   root in turn (every recorded state is reachable from one) over integer
   ids only, with an explicit stack, so deep regions cannot overflow the
   call stack.  [place.(s)] is -1 before s is entered, its stack depth
   while it is on the stack (grey) and -2 once it is done. *)
let cycle_ids r =
  let n = r.parent.len in
  let place = Array.make n (-1) in
  let stack = Array.make n 0 and cursor = Array.make n 0 in
  let depth = ref 0 in
  let enter s =
    place.(s) <- !depth;
    stack.(!depth) <- s;
    cursor.(!depth) <- get r.off s;
    incr depth
  in
  let found = ref None in
  let search root =
    if root >= 0 && place.(root) = -1 then enter root;
    while Option.is_none !found && !depth > 0 do
      let top = !depth - 1 in
      let s = stack.(top) and a = cursor.(top) in
      if a = get r.off (s + 1) then begin
        place.(s) <- -2;
        decr depth
      end
      else begin
        cursor.(top) <- a + 1;
        let t = target (get r.arcs a) in
        if t >= 0 && place.(t) = -1 then enter t
        else if t >= 0 && place.(t) >= 0 then
          (* a back arc closes the cycle of the stack from t up *)
          let j = place.(t) in
          found :=
            Some (List.init (top - j + 1) (fun i -> stack.(j + i)) @ [ t ])
      end
    done
  in
  let k = ref 0 in
  while Option.is_none !found && !k < r.roots.len do
    search (get r.roots !k);
    incr k
  done;
  !found

(* Whether a path of tagged arcs leads from a root to a sink: a DFS over
   the tagged arcs alone, marking each state as it is pushed. *)
let reaches_sink_by_tags r =
  let seen = Bytes.make r.parent.len '\000' in
  let visit todo s =
    if s < 0 || Bytes.get seen s = '\001' then todo
    else begin
      Bytes.set seen s '\001';
      s :: todo
    end
  in
  let rec search = function
    | [] -> false
    | s :: todo ->
        let first = get r.off s and last = get r.off (s + 1) in
        let todo = ref todo in
        for a = first to last - 1 do
          let word = get r.arcs a in
          if tagged word then todo := visit !todo (target word)
        done;
        first = last || search !todo
  in
  search (List.fold_left visit [] (List.init r.roots.len (get r.roots)))

(* Plays on [g], the network of the first state of a walk of recorded
   state ids, the move of an arc between each two consecutive states, and
   returns those moves.  Move enumeration depends on the state alone, so
   an arc's index among its state's arcs names its move. *)
let rec replay rule model r g = function
  | s :: (t :: _ as rest) ->
      let a = ref (get r.off s) in
      while target (get r.arcs !a) <> t do incr a done;
      let move, _ =
        List.nth (scored_moves rule model g) (!a - get r.off s)
      in
      ignore (Move.apply g move);
      move :: replay rule model r g rest
  | _ -> []

(* A cycle from [cycle_ids], rebuilt by replaying the BFS parent arcs from
   the root they lead back to, read again from the (persistent) root
   sequence at that root's first position, then the cycle itself. *)
let rebuild rule model roots r cycle =
  let rec path s acc =
    let p = get r.parent s in
    if p < 0 then s :: acc else path p (s :: acc)
  in
  let to_cycle = path (List.hd cycle) [] in
  let k = ref 0 in
  while get r.roots !k <> List.hd to_cycle do incr k done;
  let g =
    match Seq.uncons (Seq.drop !k roots) with
    | Some (root, _) -> Graph.copy root
    | None -> invalid_arg "Statespace.explore: roots must be persistent"
  in
  ignore (replay rule model r g to_cycle);
  let start = Graph.copy g in
  { start; moves = replay rule model r g cycle }

let explore ?(max_states = 100_000) ?(rule = All_improving) model roots =
  let r = walk ~max_states rule model roots in
  {
    explored = r.parent.len;
    stable = r.sinks;
    best_response_stable = reaches_sink_by_tags r;
    cycle = Option.map (rebuild rule model roots r) (cycle_ids r);
    truncated = r.over_budget;
  }
