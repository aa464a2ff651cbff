(* Cycle gallery: replay every hardness gadget shipped with the library.

   Each gadget is a network where selfish best responses loop forever;
   together they cover the paper's negative results (Thms 2.16, 3.3, 4.1,
   5.1, 5.2 and the host-graph corollaries).  The replay prints each move
   with the mover's cost change, re-verifies every claim, and shows the
   state space facts behind the "no policy can help" statements.

     dune exec examples/cycle_gallery.exe *)

open Ncg_graph
open Ncg_game
open Ncg_search
module I = Ncg_instances.Instance

let show (inst : I.t) =
  Printf.printf "--- %s ---\n%s\n" inst.I.name inst.I.description;
  let g = Graph.copy inst.I.initial in
  List.iteri
    (fun i (s : I.step) ->
      let e = Response.evaluate inst.I.model g s.I.move in
      let mover = Move.agent s.I.move in
      Printf.printf "  %d. agent %s: %-22s %s -> %s\n" (i + 1)
        (inst.I.label mover)
        (Move.to_string s.I.move)
        (Cost.to_string e.Response.before)
        (Cost.to_string e.Response.after);
      ignore (Move.apply g s.I.move))
    inst.I.steps;
  (match I.Verify.run inst with
  | [] -> print_endline "  all claims verified; the cycle closes."
  | fs ->
      List.iter
        (fun f ->
          Printf.printf "  FAILED: %s\n"
            (Format.asprintf "%a" I.Verify.pp_failure f))
        fs);
  print_newline ()

let () =
  List.iter show Ncg_instances.Catalog.all;

  (* The strongest fact, checked exhaustively: on Fig. 3's host graph no
     sequence of best responses ever stabilises. *)
  let inst = Ncg_instances.Fig3_sum_asg.host_instance in
  print_endline
    "Exhaustive check (Cor. 3.6): exploring every state reachable by best\n\
     responses from Fig. 3's G1 on the host graph K_24 - {a,f} ...";
  (let e =
     Statespace.explore ~rule:Statespace.Best_responses inst.I.model
       (Seq.return inst.I.initial)
   in
   if e.Statespace.stable <> [] then
     print_endline "  unexpectedly found a stable state!"
   else if e.Statespace.truncated then print_endline "  exploration truncated"
   else
     print_endline
       "  no stable state exists in the reachable region: the SUM-ASG on\n\
       \  this host graph is NOT weakly acyclic under best response.");

  (* And a positive contrast: on trees the MAX-SG cannot cycle at all. *)
  let model = Model.make Model.Sg Model.Max 8 in
  print_endline
    "\nContrast (Thm 2.1): the full improving-move state space of the\n\
     MAX-SG from the path P_8 ...";
  let e = Statespace.explore model (Seq.return (Gen.path 8)) in
  if Option.is_some e.Statespace.cycle then
    print_endline "  contains a cycle?!"
  else if e.Statespace.truncated then print_endline "  truncated"
  else
    print_endline
      "  is acyclic: every sequence of improving moves terminates."
