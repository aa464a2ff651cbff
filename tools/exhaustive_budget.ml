(* Exhaustive sweep over every unit-budget ASG state on n vertices: each
   agent owns exactly one edge (Gen.unit_budget_networks; 7,360 states at
   n = 6, 138,690 at n = 7).  One improving-move walk from all of them
   looks for a cycle; only if it finds one does a best-response walk run,
   since no improving cycle means no best-response cycle.  Both verdicts
   are printed.  EXPERIMENTS.md records no cycle of either kind for
   n <= 7, SUM and MAX: a unit-budget cycle (Thm 3.7) needs n >= 8.

     dune exec tools/exhaustive_budget.exe -- sum 7     (or max 7)

   Defaults: sum, n = 6.  An unknown distance word or an n below 3 exits
   2 with the usage line. *)

open Ncg_graph
open Ncg_game
open Ncg_search

let usage () =
  prerr_endline "usage: exhaustive_budget [sum|max] [N]   (N >= 3; default sum 6)";
  exit 2

let word, dist, n =
  let dist = function "sum" -> Model.Sum | "max" -> Model.Max | _ -> usage () in
  let size s =
    match int_of_string_opt s with Some n when n >= 3 -> n | _ -> usage ()
  in
  match Array.to_list Sys.argv with
  | [ _ ] -> ("sum", Model.Sum, 6)
  | [ _; d ] -> (d, dist d, 6)
  | [ _; d; k ] -> (d, dist d, size k)
  | _ -> usage ()

let () =
  let model = Model.make Model.Asg dist n in
  let sweep rule =
    Statespace.explore ~max_states:max_int ~rule model
      (Gen.unit_budget_networks n)
  in
  let verdict (e : Statespace.exploration) =
    match e.cycle with
    | None -> "no cycle"
    | Some c -> Printf.sprintf "CYCLE of %d moves" (List.length c.moves)
  in
  let improving = sweep Statespace.All_improving in
  Printf.printf "n=%d dist=%s states=%d\n" n word improving.explored;
  Printf.printf "improving moves: %s\n" (verdict improving);
  Printf.printf "best responses: %s\n"
    (if Option.is_none improving.cycle then "no cycle (no improving cycle)"
     else verdict (sweep Statespace.Best_responses))
