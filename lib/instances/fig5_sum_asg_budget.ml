(* Figure 5 / Theorem 3.7, SUM version: cyclic dynamics of the SUM-ASG on
   a network where every agent owns exactly ONE edge.

   The paper's drawing is not recoverable from its prose (the stated
   counting relation nc = nb + nd + 1 is inconsistent with the drawn group
   sizes), so this instance was REDISCOVERED by a parametrized search over
   the proof's group inventory: agent a1 with leaves a2, a3, a chain
   a4(-a5), and hub groups rooted at b1, c1, d1, with a1 toggling between
   b1 and the c-group and b1 toggling between d1 and the c-group.  The
   witness below is a 19-agent unit-budget network with a verified 4-swap
   better-response cycle that returns to the initial state exactly:

     a1: b1 -> c2,  b1: d1 -> c2,  a1: c2 -> b1,  b1: c2 -> d1

   Each swap strictly improves its mover (machine-checked), so the
   bounded-budget SUM-ASG admits cyclic improving-move dynamics even at
   budget one — the negative answer to Ehsani et al.'s open problem that
   Theorem 3.7 states.  Unlike the paper we could not exhibit a cycle in
   which every move is also a BEST response (the paper's Fig. 5 gadget
   presumably achieves this); see EXPERIMENTS.md.  Complementing the
   witness, an exhaustive sweep over all unit-budget states (scripted in
   the search library's tooling) shows no better- or best-response cycle
   exists at all for n <= 7. *)

let a1 = 0
let a4 = 4
let b1 = 5
let c1 = 9
let c2 = 10
let d1 = 16

let label v =
  [| "a1"; "a2"; "a3"; "a4"; "a5"; "b1"; "b2"; "b3"; "b4"; "c1"; "c2";
     "c3"; "c4"; "c5"; "c6"; "c7"; "d1"; "d2"; "d3" |].(v)

let initial () =
  Graph.of_edges 19
    [ (1, a1); (2, a1); (3, a1);  (* leaves a2, a3, and one more on a1 *)
      (a1, b1);                   (* a1's edge, toggles to c2 *)
      (4, 8);                     (* a4 hangs off the end of the b-path *)
      (d1, 4);                    (* d1's edge closes the unique cycle *)
      (b1, d1);                   (* b1's edge, toggles to c2 *)
      (6, b1); (7, 6); (8, 7);    (* b-path b1-b2-b3-b4 *)
      (c1, 6);                    (* c-path hangs off b2 *)
      (10, 9); (11, 10); (12, 11); (13, 12); (14, 13); (15, 14);
      (17, d1); (18, d1) ]        (* d-star *)

let model () = Model.make Model.Asg Model.Sum 19

let steps =
  let open Instance in
  let swap agent remove add =
    { move = Move.Swap { agent; remove; add };
      claims = [ Is_improving ] }
  in
  [ swap a1 b1 c2; swap b1 d1 c2; swap a1 c2 b1; swap b1 c2 d1 ]

let instance =
  Instance.make ~name:"fig5-sum-asg-budget"
    ~description:
      "Fig. 5 / Thm 3.7 (SUM): improving-move cycle of the SUM-ASG where \
       every agent owns exactly one edge (search-rediscovered witness; \
       see EXPERIMENTS.md)"
    ~model:(model ()) ~label ~initial:(initial ()) ~steps
    ~closure:Instance.Exact

let _ = c1
let _ = a4
