type successor_rule = All_improving | Best_responses

type cycle = { start : Graph.t; moves : Move.t list }

type exploration = {
  explored : int;
  stable : Graph.t list;
  cycle : cycle option;
  truncated : bool;
}

(* The exact-state dedupe key: ownership is part of the state only when
   the game uses it. *)
let state_key model g =
  if Model.uses_ownership model then Canonical.key g
  else Canonical.unowned_key g

(* The outgoing moves of a state under the successor rule. *)
let successor_moves rule model g =
  let moves_of u =
    match rule with
    | All_improving -> Response.improving_moves model g u
    | Best_responses -> Response.best_moves model g u
  in
  List.concat_map
    (fun u -> List.map (fun e -> e.Response.move) (moves_of u))
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

(* The walk's record of the region, by state id (0 is the initial state,
   ids follow admission order, which is also expansion order).  State i's
   arcs are entries [off(i)] to [off(i+1) - 1] of [arcs], one per
   successor move in [successor_moves] order, each the target's id or -1
   when the budget kept the target out.  [parent(i)] is the state whose
   arc admitted i. *)
type region = {
  sinks : Graph.t list;  (* in admission order *)
  over_budget : bool;
  off : buf;
  arcs : buf;
  parent : buf;
}

(* The one state-space walk: breadth-first from [initial], admitting at
   most [max_states] distinct states and stopping at the first sink when
   [stop_at_sink]. *)
let walk ~stop_at_sink ~max_states rule model initial =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let off = buf () and arcs = buf () and parent = buf () in
  let sinks = ref [] and over_budget = ref false in
  let admit ~from g =
    let key = state_key model g in
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
  ignore (admit ~from:(-1) initial);
  (try
     while not (Queue.is_empty queue) do
       let g = Queue.pop queue in
       let id = off.len in
       push off arcs.len;
       match successor_moves rule model g with
       | [] ->
           sinks := g :: !sinks;
           if stop_at_sink then raise Exit
       | moves ->
           List.iter
             (fun move ->
               let token = Move.apply g move in
               push arcs (admit ~from:id g);
               Move.undo g token)
             moves
     done
   with Exit -> ());
  push off arcs.len;
  { sinks = List.rev !sinks; over_budget = !over_budget; off; arcs; parent }

(* A directed cycle among the recorded states, as the closed walk of its
   state ids [first; ...; first].  Iterative three-colour DFS from the
   initial state (every recorded state is reachable from it) over integer
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
  if n > 0 then enter 0;
  let found = ref None in
  while Option.is_none !found && !depth > 0 do
    let top = !depth - 1 in
    let s = stack.(top) and a = cursor.(top) in
    if a = get r.off (s + 1) then begin
      place.(s) <- -2;
      decr depth
    end
    else begin
      cursor.(top) <- a + 1;
      let t = get r.arcs a in
      if t >= 0 && place.(t) = -1 then enter t
      else if t >= 0 && place.(t) >= 0 then
        (* a back arc closes the cycle of the stack from t up *)
        let j = place.(t) in
        found :=
          Some (List.init (top - j + 1) (fun i -> stack.(j + i)) @ [ t ])
    end
  done;
  !found

(* Plays on [g], the network of the first state of a walk of recorded
   state ids, the move of an arc between each two consecutive states, and
   returns those moves.  Move enumeration depends on the state alone, so
   an arc's index among its state's arcs names its move. *)
let rec replay rule model r g = function
  | s :: (t :: _ as rest) ->
      let a = ref (get r.off s) in
      while get r.arcs !a <> t do incr a done;
      let move = List.nth (successor_moves rule model g) (!a - get r.off s) in
      ignore (Move.apply g move);
      move :: replay rule model r g rest
  | _ -> []

(* A cycle from [cycle_ids], rebuilt by replaying the BFS parent arcs from
   the initial state to its first state, then the cycle itself. *)
let rebuild rule model initial r cycle =
  let rec path s acc =
    if s = 0 then 0 :: acc else path (get r.parent s) (s :: acc)
  in
  let g = Graph.copy initial in
  ignore (replay rule model r g (path (List.hd cycle) []));
  let start = Graph.copy g in
  { start; moves = replay rule model r g cycle }

let explore ?(max_states = 100_000) ?(rule = All_improving) model initial =
  let r = walk ~stop_at_sink:false ~max_states rule model initial in
  {
    explored = r.parent.len;
    stable = r.sinks;
    cycle = Option.map (rebuild rule model initial r) (cycle_ids r);
    truncated = r.over_budget;
  }

let reachable_stable_state ?(max_states = 100_000) ?(rule = All_improving)
    model initial =
  let r = walk ~stop_at_sink:true ~max_states rule model initial in
  match r.sinks with
  | g :: _ -> `Found g
  | [] -> if r.over_budget then `Truncated else `None
