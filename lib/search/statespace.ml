type successor_rule = All_improving | Best_responses

type exploration = {
  explored : int;
  stable : string list;
  stable_reps : Graph.t list;
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

let explore ?(max_states = 100_000) ?(rule = All_improving) model initial =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let stable = ref [] in
  let stable_reps = ref [] in
  let truncated = ref false in
  let push g =
    let key = state_key model g in
    if not (Hashtbl.mem seen key) then begin
      if Hashtbl.length seen >= max_states then truncated := true
      else begin
        Hashtbl.replace seen key ();
        Queue.add (Graph.copy g) queue
      end
    end
  in
  push initial;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    match successor_moves rule model g with
    | [] ->
        stable := state_key model g :: !stable;
        stable_reps := Graph.copy g :: !stable_reps
    | moves ->
        List.iter
          (fun move ->
            let token = Move.apply g move in
            push g;
            Move.undo g token)
          moves
  done;
  {
    explored = Hashtbl.length seen;
    stable = !stable;
    stable_reps = !stable_reps;
    truncated = !truncated;
  }

let reachable_stable_state ?(max_states = 100_000) ?(rule = All_improving)
    model initial =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let truncated = ref false in
  let push g =
    let key = state_key model g in
    if not (Hashtbl.mem seen key) then begin
      if Hashtbl.length seen >= max_states then truncated := true
      else begin
        Hashtbl.replace seen key ();
        Queue.add (Graph.copy g) queue
      end
    end
  in
  push initial;
  let result = ref `None in
  (try
     while not (Queue.is_empty queue) do
       let g = Queue.pop queue in
       match successor_moves rule model g with
       | [] ->
           result := `Found g;
           raise Exit
       | moves ->
           List.iter
             (fun move ->
               let token = Move.apply g move in
               push g;
               Move.undo g token)
             moves
     done
   with Exit -> ());
  match !result with
  | `Found _ as r -> r
  | `None -> if !truncated then `Truncated else `None

type cycle = { start : Graph.t; moves : Move.t list }

(* Iterative three-color DFS for a back edge, driven by a plain while loop
   over an explicit frame stack — no recursion anywhere, so regions whose
   DFS tree is millions of states deep (long paths of long paths) cannot
   overflow the call stack.  Each frame owns its graph copy, its key, the
   moves not yet expanded (mutable, popped in place) and the move that
   entered it. *)
type frame = {
  fr_graph : Graph.t;
  fr_key : string;
  mutable fr_moves : Move.t list;  (* successors not yet expanded *)
  fr_via : Move.t option;  (* move that entered this state; None at the root *)
}

let find_cycle ?(max_states = 100_000) ?(rule = All_improving) model initial =
  let color : (string, [ `Gray | `Black ]) Hashtbl.t = Hashtbl.create 1024 in
  let truncated = ref false in
  let stack = ref [] in
  let push g key via =
    Hashtbl.replace color key `Gray;
    stack :=
      { fr_graph = g; fr_key = key; fr_moves = successor_moves rule model g;
        fr_via = via }
      :: !stack
  in
  let g0 = Graph.copy initial in
  push g0 (state_key model g0) None;
  let result = ref None in
  while Option.is_none !result && !stack <> [] do
    let frame = List.hd !stack in
    match frame.fr_moves with
    | [] ->
        Hashtbl.replace color frame.fr_key `Black;
        stack := List.tl !stack
    | move :: rest -> (
        frame.fr_moves <- rest;
        let g' = Graph.copy frame.fr_graph in
        ignore (Move.apply g' move);
        let key' = state_key model g' in
        match Hashtbl.find_opt color key' with
        | Some `Gray ->
            (* Back edge: the cycle is the gray path from key' down to this
               state, plus [move].  Every gray state sits on the stack, so
               walk it head-first prepending the entry moves until key' is
               reached. *)
            let cycle_moves = ref [ move ] in
            let start = ref None in
            (try
               List.iter
                 (fun fr ->
                   if fr.fr_key = key' then begin
                     start := Some fr.fr_graph;
                     raise Exit
                   end
                   else
                     match fr.fr_via with
                     | Some m -> cycle_moves := m :: !cycle_moves
                     | None -> raise Exit)
                 !stack
             with Exit -> ());
            let start =
              match !start with Some s -> Graph.copy s | None -> g'
            in
            result := Some (`Cycle { start; moves = !cycle_moves })
        | Some `Black -> ()
        | None ->
            if Hashtbl.length color >= max_states then truncated := true
            else push g' key' (Some move))
  done;
  match !result with
  | Some r -> r
  | None -> if !truncated then `Truncated else `Acyclic

let is_fipg_from ?max_states model initial =
  match find_cycle ?max_states ~rule:All_improving model initial with
  | `Cycle _ -> `No
  | `Acyclic -> `Yes
  | `Truncated -> `Truncated
