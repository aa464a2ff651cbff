type verdict = Yes | No | Unknown

type report = {
  finite_improvement : verdict;
  br_weakly_acyclic : verdict;
  weakly_acyclic : verdict;
  states_explored : int;
}

let classify ?(max_states = 50_000) model initial =
  let explore rule =
    Statespace.explore ~max_states ~rule model (Seq.return initial)
  in
  let e = explore Statespace.All_improving in
  let unless_truncated v = if e.Statespace.truncated then Unknown else v in
  {
    finite_improvement =
      (if Option.is_some e.Statespace.cycle then No else unless_truncated Yes);
    br_weakly_acyclic =
      (if e.Statespace.best_response_stable then Yes
       else if not e.Statespace.truncated then No
       else
         (* the truncated improving region may miss a best-response path
            that a walk of the best-response region alone would reach *)
         let b = explore Statespace.Best_responses in
         if b.Statespace.stable <> [] then Yes
         else if b.Statespace.truncated then Unknown
         else No);
    weakly_acyclic =
      (if e.Statespace.stable <> [] then Yes else unless_truncated No);
    states_explored = e.Statespace.explored;
  }

type sink_class = {
  game_stable : bool;
  greedy_stable : bool;
  nash_stable : bool;
}

let classify_sink model g =
  let n = Model.n model in
  (* For games where ownership does not affect strategies (SG, bilateral)
     the explorer may hand us any ownership labelling of the sink; the
     buy-game stability probes below DO read ownership, so normalise to
     the smaller-endpoint labelling first — classification must depend on
     the state, not on which representative the explorer kept. *)
  let g =
    if Model.uses_ownership model then g
    else
      Graph.of_unowned_edges n
        (List.map (fun (u, v, _) -> (u, v)) (Graph.edges g))
  in
  let variant game =
    Model.make ~alpha:model.Model.alpha ~host:model.Model.host game
      model.Model.dist_mode n
  in
  {
    game_stable = Response.is_stable model g;
    greedy_stable = Response.is_stable (variant Model.Gbg) g;
    nash_stable = Response.is_stable (variant Model.Bg) g;
  }

let pp_verdict fmt = function
  | Yes -> Format.pp_print_string fmt "yes"
  | No -> Format.pp_print_string fmt "no"
  | Unknown -> Format.pp_print_string fmt "unknown"

let pp fmt r =
  Format.fprintf fmt
    "finite-improvement=%a br-weakly-acyclic=%a weakly-acyclic=%a (%d states)"
    pp_verdict r.finite_improvement pp_verdict r.br_weakly_acyclic pp_verdict
    r.weakly_acyclic r.states_explored
