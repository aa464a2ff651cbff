type claim =
  | Unhappy_exactly of int list
  | Happy of int list
  | Is_best_response
  | Is_unique_best_response
  | Is_improving
  | Only_improving_move
  | Cost_of of int * Cost.t
  | No_better_multi_swap
  | Blocked of int * Move.t

type step = { move : Move.t; claims : claim list }

type closure = Exact | Isomorphic | Open

type t = {
  name : string;
  description : string;
  model : Model.t;
  label : int -> string;
  initial : Graph.t;
  steps : step list;
  closure : closure;
}

let make ~name ~description ~model ~label ~initial ~steps ~closure =
  { name; description; model; label; initial; steps; closure }

let states t =
  let g = Graph.copy t.initial in
  let snapshots =
    List.map
      (fun s ->
        ignore (Move.apply g s.move);
        Graph.copy g)
      t.steps
  in
  Graph.copy t.initial :: snapshots

module Verify = struct
  type failure = { step_index : int option; message : string }

  let pp_failure fmt f =
    match f.step_index with
    | None -> Format.fprintf fmt "closure: %s" f.message
    | Some i -> Format.fprintf fmt "step %d: %s" i f.message

  let moves_equal a b = Move.equal a b

  let check_claim t g step_index move claim =
    let model = t.model in
    let unit_price = Model.unit_price model in
    let fail fmt =
      Format.kasprintf
        (fun message -> Some { step_index = Some step_index; message })
        fmt
    in
    match claim with
    | Unhappy_exactly expected ->
        let actual = Response.unhappy_agents model g in
        let expected = List.sort compare expected in
        if actual = expected then None
        else
          fail "unhappy agents {%s}, expected {%s}"
            (String.concat "," (List.map t.label actual))
            (String.concat "," (List.map t.label expected))
    | Happy agents -> (
        match List.filter (Response.is_unhappy model g) agents with
        | [] -> None
        | bad ->
            fail "agents {%s} claimed happy but can improve"
              (String.concat "," (List.map t.label bad)))
    | Is_best_response ->
        let best = Response.best_moves model g (Move.agent move) in
        if List.exists (fun e -> moves_equal e.Response.move move) best then
          None
        else
          fail "move [%s] is not a best response (best: %s)"
            (Move.to_string move)
            (String.concat "; "
               (List.map (fun e -> Move.to_string e.Response.move) best))
    | Is_unique_best_response -> (
        match Response.best_moves model g (Move.agent move) with
        | [ e ] when moves_equal e.Response.move move -> None
        | best ->
            fail "move [%s] is not the unique best response (best set: %s)"
              (Move.to_string move)
              (String.concat "; "
                 (List.map (fun e -> Move.to_string e.Response.move) best)))
    | Is_improving ->
        let e = Response.evaluate model g move in
        if
          Response.feasible model g move
          && Cost.lt ~unit_price e.Response.after e.Response.before
        then None
        else fail "move [%s] is not a feasible improving move"
            (Move.to_string move)
    | Only_improving_move -> (
        match Response.improving_moves model g (Move.agent move) with
        | [ e ] when moves_equal e.Response.move move -> None
        | improving ->
            fail "move [%s] is not the only improving move (found: %s)"
              (Move.to_string move)
              (String.concat "; "
                 (List.map
                    (fun e -> Move.to_string e.Response.move)
                    improving)))
    | Cost_of (agent, expected) ->
        let actual = Agents.cost model g agent in
        if Cost.compare ~unit_price actual expected = 0 then None
        else
          fail "agent %s has cost %s, expected %s" (t.label agent)
            (Cost.to_string actual) (Cost.to_string expected)
    | No_better_multi_swap ->
        let u = Move.agent move in
        let e = Response.evaluate model g move in
        let better_multi =
          Seq.exists
            (fun candidate ->
              let c = Response.evaluate model g candidate in
              Cost.lt ~unit_price c.Response.after e.Response.after)
            (Response.multi_swap_candidates model g u)
        in
        if better_multi then
          fail "a multi-swap outperforms move [%s]" (Move.to_string move)
        else None
    | Blocked (agent, candidate) -> (
        if Move.agent candidate <> agent then
          fail "blocked-claim agent mismatch"
        else
          match Response.blockers model g candidate with
          | [] ->
              fail "move [%s] of %s is not blocked"
                (Move.to_string candidate)
                (t.label agent)
          | _ -> None)

  let run t =
    let g = Graph.copy t.initial in
    let failures = ref [] in
    List.iteri
      (fun i step ->
        List.iter
          (fun claim ->
            match check_claim t g i step.move claim with
            | None -> ()
            | Some f -> failures := f :: !failures
            | exception Invalid_argument msg ->
                failures :=
                  { step_index = Some i;
                    message = "claim not checkable: " ^ msg }
                  :: !failures)
          step.claims;
        match Move.apply g step.move with
        | _token -> ()
        | exception Invalid_argument msg ->
            failures :=
              { step_index = Some i;
                message = "move not applicable: " ^ msg }
              :: !failures)
      t.steps;
    let owned = Model.uses_ownership t.model in
    let closure_failure message =
      failures := { step_index = None; message } :: !failures
    in
    (match t.closure with
    | Open -> ()
    | Exact ->
        if Canonical.state_key ~owned g <> Canonical.state_key ~owned t.initial
        then closure_failure "final state differs from the initial one"
    | Isomorphic -> (
        match Canonical.isomorphism ~respect_ownership:owned g t.initial with
        | Some _ -> ()
        | None ->
            closure_failure "final state not isomorphic to the initial one"
        | exception Canonical.Budget_exceeded ->
            closure_failure "isomorphism check exceeded its search budget"));
    List.rev !failures

  let check t =
    match run t with
    | [] -> ()
    | failures ->
        let report =
          String.concat "\n"
            (List.map (Format.asprintf "  %a" pp_failure) failures)
        in
        failwith
          (Printf.sprintf "instance %s failed verification:\n%s" t.name
             report)
end
