(* The repository benchmark: one workload per run, end-to-end metrics from
   an untraced run, per-layer metrics from a traced one.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--spans FILE]
     main.exe --selfcheck

   The last line of standard output is the result object; the exit code
   is 1 when any output check failed.  benchmark/README.md documents the
   workloads and every metric.  The service workload runs the daemon
   built as bin/ncg_serve.exe next to this executable's directory. *)

open Ncg_graph
open Ncg_game
open Ncg_core

let workloads =
  [
    ("trial-n1000", Trials.run Trials.n1000);
    ("trial-n2000-b64", Trials.run Trials.n2000_b64);
    ("sweep-asg-random", Sweep.run);
    ("service-iso", Service.run);
  ]

(* The traced replica against [Engine.run] on small instances covering
   every path the traced runs take: the max-cost board, the random policy
   without it, a cache budget small enough to evict, cycle detection over
   owned and unowned state keys, and any-improving moves. *)
let selfcheck () =
  let n = 60 in
  let gbg ?budget ?(detect_cycles = false) ?(tie_break = Engine.Prefer_deletion) () =
    ( Engine.config ~policy:Policy.Max_cost ~tie_break ~max_steps:400
        ~detect_cycles ?cache_budget:budget (Trials.model n),
      fun rng -> Gen.random_m_edges rng n (4 * n) )
  in
  let asg ?(move_rule = Engine.Best_response) () =
    ( Engine.config ~policy:Policy.Random_unhappy ~move_rule ~detect_cycles:true
        (Model.make Model.Asg Model.Sum n),
      fun rng -> Gen.random_budget_network rng n 2 )
  in
  let cases =
    [
      ("max-cost board", gbg ());
      ("max-cost board, budget 4", gbg ~budget:4 ());
      ("max-cost, cycle detection", gbg ~detect_cycles:true ~tie_break:Engine.Uniform ());
      ("random-unhappy, cycle detection", asg ());
      ("random-unhappy, any improving", asg ~move_rule:Engine.Any_improving ());
      ( "MAX-SG max-cost, unowned cycle key",
        ( Engine.config ~policy:Policy.Max_cost ~detect_cycles:true
            (Model.make Model.Sg Model.Max n),
          fun rng -> Gen.random_tree rng n ) );
    ]
  in
  let ok = ref true in
  List.iter
    (fun (name, (cfg, generate)) ->
      let pool = Replica.create_pool ?budget:cfg.Engine.cache_budget n in
      let evicted = ref 0 and steps = ref 0 and same = ref 0 in
      for seed = 1 to 5 do
        let g = generate (Random.State.make [| seed |]) in
        let rng () = Random.State.make [| seed; 1 |] in
        let replayed =
          Replica.run ~pool ~counters:(Replica.counters ()) ~rng:(rng ()) cfg g
        in
        let r = Engine.run ~rng:(rng ()) cfg g in
        if Replica.matches replayed r then incr same;
        evicted := !evicted + r.Engine.cache.Distcache.evicted;
        steps := !steps + r.Engine.steps
      done;
      let pass = !same = 5 && (cfg.Engine.cache_budget = None || !evicted > 0) in
      if not pass then ok := false;
      (* divergences go to standard error, which [dune runtest] shows *)
      Printf.fprintf (if pass then stdout else stderr)
        "%-40s %s (%d steps, %d evictions)\n%!" name
        (if pass then "ok" else "DIVERGED")
        !steps !evicted)
    cases;
  exit (if !ok then 0 else 1)

let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]"

let main () =
  let workload = ref "" and seed = ref 2013 and seconds = ref 20.0 in
  let trace = ref 0 and spans = ref "" and check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 2013)");
      ("--seconds", Arg.Set_float seconds, "S nominal measuring time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans here as JSON lines");
      ("--selfcheck", Arg.Set check, " replay small instances and compare with the engine");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !check then selfcheck ();
  let fail msg =
    prerr_endline ("benchmark: " ^ msg);
    exit 2
  in
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> fail ("unknown workload " ^ !workload ^ "\n" ^ usage)
  in
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let outcome =
    run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~spans:(if !spans = "" then None else Some !spans)
  in
  exit (if Report.print outcome then 0 else 1)

let () = main ()
