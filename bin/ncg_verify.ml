(* ncg_verify: replay and verify every shipped gadget, then run the
   exhaustive state-space checks behind the host-graph corollaries.
   Exit status is non-zero if any claim fails. *)

open Ncg_search
module I = Ncg_instances.Instance

let failures = ref 0

(* A failed check is named on standard error too: `dune runtest` runs
   this binary with its standard output discarded. *)
let fail name =
  incr failures;
  Printf.eprintf "ncg_verify: %s FAILED\n%!" name

let report inst =
  match I.Verify.run inst with
  | [] ->
      Printf.printf "%-24s OK  (%d steps, %s)\n%!" inst.I.name
        (List.length inst.I.steps)
        (Ncg_game.Model.game_name inst.I.model)
  | fs ->
      fail inst.I.name;
      Printf.printf "%-24s FAILED\n" inst.I.name;
      List.iter
        (fun f ->
          Printf.printf "    %s\n" (Format.asprintf "%a" I.Verify.pp_failure f))
        fs

let statespace_check name inst expected =
  let e =
    Statespace.explore ~max_states:300_000 ~rule:Statespace.Best_responses
      inst.I.model (Seq.return inst.I.initial)
  in
  let stabilises = e.Statespace.stable <> [] in
  let shown =
    if stabilises then "a best-response path reaches a stable state"
    else if e.Statespace.truncated then "exploration truncated"
    else "no stable state reachable by best responses"
  in
  let ok =
    match expected with
    | `Stabilises -> stabilises
    | `Not_weakly_acyclic -> not (stabilises || e.Statespace.truncated)
  in
  if not ok then fail name;
  Printf.printf "%-24s %s  [%s]\n%!" name shown (if ok then "ok" else "FAIL")

let () =
  print_endline "Gadget verification:";
  List.iter report Ncg_instances.Catalog.all;
  print_endline "\nExhaustive state-space checks:";
  statespace_check "cor36-sum (BR space)" Ncg_instances.Fig3_sum_asg.host_instance
    `Not_weakly_acyclic;
  (* Machine-checking shows the Cor 4.2 host variants can escape to a
     stable state (see EXPERIMENTS.md); we assert the observed behavior so
     a change in the engine that silently alters it fails loudly. *)
  statespace_check "cor42-sum (BR space)" Ncg_instances.Fig9_sum_gbg.host_instance
    `Stabilises;
  statespace_check "cor42-max (BR space)" Ncg_instances.Fig10_max_gbg.host_instance
    `Stabilises;
  if !failures > 0 then begin
    Printf.printf "\n%d failures\n" !failures;
    exit 1
  end
  else print_endline "\nall checks passed"
