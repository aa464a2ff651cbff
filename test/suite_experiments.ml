(* Tests for the experiment harness and the parallel substrate. *)
open Ncg_game
open Ncg_core
open Ncg_experiments

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  let xs = List.init 37 (fun i -> i) in
  let expected = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int)) "sequential" expected
    (Ncg_parallel.Pool.map (fun x -> x * x) xs);
  Alcotest.(check (list int)) "parallel preserves order" expected
    (Ncg_parallel.Pool.map ~domains:3 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "more domains than items" [ 4 ]
    (Ncg_parallel.Pool.map ~domains:8 (fun x -> x * x) [ 2 ]);
  check_int "map_reduce" 55
    (Ncg_parallel.Pool.map_reduce ~domains:2 ~map:(fun x -> x * x)
       ~combine:( + ) 0
       [ 1; 2; 3; 4; 5 ]);
  check "recommended domains positive" true
    (Ncg_parallel.Pool.recommended_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let small_spec () =
  let model = Model.make Model.Asg Model.Sum 12 in
  Runner.spec model (fun rng -> Ncg_graph.Gen.random_budget_network rng 12 2)

let test_runner_deterministic () =
  let s1 = Runner.run ~trials:6 (small_spec ()) in
  let s2 = Runner.run ~trials:6 (small_spec ()) in
  check "same seed, same summary" true (s1 = s2);
  let s3 = Runner.run ~seed:999 ~trials:6 (small_spec ()) in
  check "summaries carry runs" true (s3.Stats.runs = 6)

let test_runner_parallel_matches_sequential () =
  let s1 = Runner.run ~domains:1 ~trials:8 (small_spec ()) in
  let s2 = Runner.run ~domains:4 ~trials:8 (small_spec ()) in
  check "domains do not change results" true (s1 = s2)

let test_runner_converges () =
  let s = Runner.run ~trials:10 (small_spec ()) in
  check_int "all converged" 10 s.Stats.converged;
  check_int "no cycles" 0 s.Stats.cycles;
  check "within 5n" true (s.Stats.max_steps <= 5 * 12)

(* ------------------------------------------------------------------ *)
(* Robustness: crashing trials, budgets, checkpoint/resume             *)
(* ------------------------------------------------------------------ *)

let test_runner_survives_crashing_trial () =
  let model = Model.make Model.Asg Model.Sum 10 in
  let trial_counter = Atomic.make 0 in
  let spec =
    Runner.spec model (fun rng ->
        let k = Atomic.fetch_and_add trial_counter 1 in
        if k = 3 then failwith "injected trial failure";
        Ncg_graph.Gen.random_budget_network rng 10 2)
  in
  let s = Runner.run ~trials:8 spec in
  check_int "all trials counted" 8 s.Stats.runs;
  check_int "one error recorded" 1 s.Stats.errors;
  check_int "seven trials converged" 7 s.Stats.converged

let test_runner_time_budget () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~time_budget:(-1.0) model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let s = Runner.run ~trials:5 spec in
  check_int "every trial hit the wall clock" 5 s.Stats.timed_out;
  check_int "none converged" 0 s.Stats.converged

let test_runner_audited () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~audit:Ncg_core.Audit.Every_step model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let plain =
    Runner.run ~trials:6
      (Runner.spec model (fun rng ->
           Ncg_graph.Gen.random_budget_network rng 12 2))
  in
  let audited = Runner.run ~trials:6 spec in
  check_int "no violations on healthy dynamics" 0 audited.Stats.faulted;
  check "audit does not change the statistics" true
    (plain.Stats.avg_steps = audited.Stats.avg_steps
    && plain.Stats.max_steps = audited.Stats.max_steps)

let with_temp_checkpoint f =
  let path = Filename.temp_file "ncg_ckpt" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_resume_parity () =
  with_temp_checkpoint (fun path ->
      let spec () = small_spec () in
      let uninterrupted = Runner.run ~trials:9 (spec ()) in
      (* phase 1: run only a prefix of the trials, recording them *)
      let cp = Checkpoint.open_ ~fingerprint:"parity" path in
      let partial =
        Runner.run_outcomes ~checkpoint:cp ~key:"pt" ~trials:4 (spec ())
      in
      Checkpoint.close cp;
      check_int "four recorded" 4 (List.length partial);
      (* phase 2: resume with the full trial count; the four completed
         trials load from disk, the rest run fresh *)
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"parity" path in
      check_int "completed trials loaded" 4
        (List.length (Checkpoint.completed cp ~key:"pt"));
      let resumed = Runner.run ~checkpoint:cp ~key:"pt" ~trials:9 (spec ()) in
      Checkpoint.close cp;
      check "resumed summary equals uninterrupted" true
        (resumed = uninterrupted))

let test_checkpoint_outcome_roundtrip () =
  with_temp_checkpoint (fun path ->
      let outcomes =
        [ Stats.of_verdict
            (Stats.Finished { reason = Engine.Converged; steps = 12 });
          Stats.of_verdict ~attempts:2
            (Stats.Finished
               { reason =
                   Engine.Cycle_detected { first_visit = 3; period = 4 };
                 steps = 7 });
          Stats.of_verdict ~degraded:true
            (Stats.Finished { reason = Engine.Step_limit; steps = 600 });
          Stats.of_verdict
            (Stats.Finished { reason = Engine.Time_limit; steps = 41 });
          Stats.of_verdict
            (Stats.Finished
               { reason =
                   Engine.Invariant_violation
                     {
                       Ncg_core.Audit.kind = Ncg_core.Audit.Self_loop;
                       step = 5;
                       subject = Some 2;
                       detail = "tab\there and\nnewline";
                     };
                 steps = 5 });
          Stats.of_verdict ~attempts:3 ~quarantined:true
            (Stats.Crashed
               { exn = "Failure(\"boom\")"; backtrace = "frame 0" })
        ]
      in
      let cp = Checkpoint.open_ ~fingerprint:"rt" path in
      List.iteri
        (fun trial o -> Checkpoint.record cp ~key:"k" ~trial o)
        outcomes;
      Checkpoint.close cp;
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"rt" path in
      let loaded =
        List.sort compare (Checkpoint.completed cp ~key:"k")
      in
      Checkpoint.close cp;
      check "every outcome survives the disk roundtrip" true
        (loaded = List.mapi (fun i o -> (i, o)) outcomes))

let test_checkpoint_fingerprint_mismatch () =
  with_temp_checkpoint (fun path ->
      let cp = Checkpoint.open_ ~fingerprint:"sweep A" path in
      Checkpoint.record cp ~key:"k" ~trial:0
        (Stats.of_verdict
           (Stats.Finished { reason = Engine.Converged; steps = 1 }));
      Checkpoint.close cp;
      match Checkpoint.open_ ~resume:true ~fingerprint:"sweep B" path with
      | _ -> Alcotest.fail "mismatched fingerprint must be refused"
      | exception Failure _ -> check "refused" true true)

let test_checkpoint_torn_line_ignored () =
  with_temp_checkpoint (fun path ->
      let cp = Checkpoint.open_ ~fingerprint:"torn" path in
      Checkpoint.record cp ~key:"k" ~trial:0
        (Stats.of_verdict
           (Stats.Finished { reason = Engine.Converged; steps = 10 }));
      Checkpoint.record cp ~key:"k" ~trial:1
        (Stats.of_verdict
           (Stats.Finished { reason = Engine.Converged; steps = 20 }));
      Checkpoint.close cp;
      (* simulate a crash mid-write: truncate the last record *)
      let contents =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let oc = open_out_bin path in
      output_string oc (String.sub contents 0 (String.length contents - 7));
      close_out oc;
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"torn" path in
      let loaded = Checkpoint.completed cp ~key:"k" in
      let report = Checkpoint.load_report cp in
      Checkpoint.close cp;
      check_int "torn record dropped, intact one kept" 1 (List.length loaded);
      check_int "the torn line is reported, not silent" 1
        (List.length report.Checkpoint.corrupted);
      check "reported as the tail" true
        (match report.Checkpoint.corrupted with
        | [ c ] -> c.Checkpoint.tail
        | _ -> false))

(* Regression for the v1 loader's silent data loss: malformed lines were
   skipped without a trace.  The v2 loader reading a v1 file must load
   every valid record AND surface each malformed line. *)
let test_checkpoint_v1_malformed_lines_surfaced () =
  with_temp_checkpoint (fun path ->
      let oc = open_out path in
      output_string oc
        (String.concat "\n"
           [
             "# ncg-checkpoint v1\tv1-regression";
             "k\t0\tok\t10";
             "k\t1\tok\tnot-an-int";  (* malformed steps *)
             "k\t2\tbogus-tag\t5";  (* unknown tag *)
             "k\t3\tok\t30";
             "";
           ]);
      close_out oc;
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"v1-regression" path in
      let loaded = Checkpoint.completed cp ~key:"k" in
      let report = Checkpoint.load_report cp in
      Checkpoint.close cp;
      check_int "both valid records loaded" 2 (List.length loaded);
      check_int "both malformed lines counted" 2
        (List.length report.Checkpoint.corrupted);
      check "lines 3 and 4 identified" true
        (List.map (fun c -> c.Checkpoint.line) report.Checkpoint.corrupted
        = [ 3; 4 ]);
      check "migration to v2 reported" true report.Checkpoint.migrated_from_v1)

(* ------------------------------------------------------------------ *)
(* Retry, backoff, quarantine                                          *)
(* ------------------------------------------------------------------ *)

let test_backoff_budget () =
  check "no budget stays none" true
    (Runner.backoff_budget None ~attempt:3 = None);
  Alcotest.(check (float 1e-9))
    "attempt 0 keeps the budget" 0.5
    (Option.get (Runner.backoff_budget (Some 0.5) ~attempt:0));
  Alcotest.(check (float 1e-9))
    "attempt 1 doubles it" 1.0
    (Option.get (Runner.backoff_budget (Some 0.5) ~attempt:1));
  Alcotest.(check (float 1e-9))
    "attempt 2 doubles again" 2.0
    (Option.get (Runner.backoff_budget (Some 0.5) ~attempt:2))

(* A trial that always times out: retried with a doubled budget each
   attempt, and after the last retry it is quarantined with the attempt
   count on record. *)
let test_timeout_retries_then_quarantine () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~time_budget:(-1.0) ~max_retries:2 model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let outcomes = Runner.run_outcomes ~trials:3 spec in
  check_int "three outcomes" 3 (List.length outcomes);
  List.iter
    (fun (o : Stats.outcome) ->
      check "timed out" true
        (match o.Stats.verdict with
        | Stats.Finished { reason = Engine.Time_limit; _ } -> true
        | _ -> false);
      check_int "all attempts used" 3 o.Stats.attempts;
      check "quarantined" true o.Stats.quarantined)
    outcomes;
  let s = Stats.summarize_outcomes outcomes in
  check_int "summary timed_out" 3 s.Stats.timed_out;
  check_int "summary retried" 3 s.Stats.retried;
  check_int "summary quarantined" 3 s.Stats.quarantined

(* A trial that crashes on its first attempt only: the retry (fresh
   sub-seed) succeeds and nothing is quarantined. *)
let test_flaky_trial_recovers_on_retry () =
  let model = Model.make Model.Asg Model.Sum 10 in
  let calls = Atomic.make 0 in
  let spec =
    Runner.spec ~max_retries:2 model (fun rng ->
        if Atomic.fetch_and_add calls 1 = 0 then failwith "flaky attempt";
        Ncg_graph.Gen.random_budget_network rng 10 2)
  in
  let s = Runner.run ~trials:1 spec in
  check_int "the trial converged" 1 s.Stats.converged;
  check_int "no error in the statistics" 0 s.Stats.errors;
  check_int "counted as retried" 1 s.Stats.retried;
  check_int "not quarantined" 0 s.Stats.quarantined

(* Without retries enabled, behavior is exactly the historical one: a
   single attempt, no quarantine flags, whatever the verdict. *)
let test_no_retries_is_historical_behavior () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~time_budget:(-1.0) model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let outcomes = Runner.run_outcomes ~trials:2 spec in
  List.iter
    (fun (o : Stats.outcome) ->
      check_int "single attempt" 1 o.Stats.attempts;
      check "not quarantined" false o.Stats.quarantined)
    outcomes

let test_quarantine_reaches_incident_log () =
  let log_path = Filename.temp_file "ncg_incidents" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let model = Model.make Model.Asg Model.Sum 10 in
      let spec =
        Runner.spec ~max_retries:1 model (fun _ -> failwith "always broken")
      in
      let log = Incident_log.open_ log_path in
      let s =
        Runner.run ~incidents:log ~trials:2 spec
      in
      Incident_log.close log;
      check_int "both trials quarantined" 2 s.Stats.quarantined;
      let ic = open_in log_path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      check_int "one JSON line per quarantined trial" 2 (List.length !lines);
      List.iter
        (fun line ->
          check "records the event kind" true
            (Astring_like.contains line "\"quarantined\"");
          check "records the attempt count" true
            (Astring_like.contains line "\"attempts\":2"))
        !lines)

(* A figure of the table cut down to the curves whose label passes
   [keep]: the tests run small slices of the paper's grids. *)
let figure_slice name keep =
  let fig = Figure.find name in
  { fig with
    Figure.curves =
      List.filter (fun c -> keep c.Figure.label) fig.Figure.curves }

let labelled prefix label = String.starts_with ~prefix label

let test_sweep_checkpoint_resume () =
  with_temp_checkpoint (fun path ->
      let fig = figure_slice "fig7" (( = ) "k=2 max cost") in
      let sweep ?checkpoint ns = Figure.sweep ?checkpoint ~ns ~trials:5 fig in
      let reference = sweep [ 8; 10 ] in
      let fingerprint = "sweep-test" in
      (* interrupted attempt: only the n=8 point runs *)
      let cp = Checkpoint.open_ ~fingerprint path in
      ignore (sweep ~checkpoint:cp [ 8 ]);
      Checkpoint.close cp;
      (* resumed full sweep *)
      let cp = Checkpoint.open_ ~resume:true ~fingerprint path in
      let resumed = sweep ~checkpoint:cp [ 8; 10 ] in
      Checkpoint.close cp;
      check "resumed sweep matches the uninterrupted reference" true
        (resumed = reference))

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let test_asg_sweep_structure () =
  let fig =
    figure_slice "fig7" (fun l -> labelled "k=1 " l || labelled "k=2 " l)
  in
  let curves = Figure.sweep ~ns:[ 8; 12 ] ~trials:3 fig in
  check_int "budgets x policies curves" 4 (List.length curves);
  List.iter
    (fun (c : Series.curve) ->
      check_int "points per curve" 2 (List.length c.Series.points))
    curves;
  check "labels follow the paper" true
    (List.exists (fun c -> c.Series.label = "k=2 max cost") curves)

let test_gbg_sweep_structure () =
  let fig = figure_slice "fig13" (labelled "m=1n, a=n/4, ") in
  let curves = Figure.sweep ~ns:[ 10 ] ~trials:3 fig in
  check_int "two curves (policies)" 2 (List.length curves);
  let labels =
    List.map (fun c -> c.Figure.label) (Figure.find "fig13").Figure.curves
  in
  check "alpha labels" true
    (List.exists (fun l -> Astring_like.contains l ", a=n/4, ") labels
    && List.exists (fun l -> Astring_like.contains l ", a=n, ") labels);
  let spec = (List.hd fig.Figure.curves).Figure.spec 10 in
  check "alpha value exact" true
    (Ncg_rational.Q.equal spec.Runner.model.Model.alpha
       (Ncg_rational.Q.make 5 2))

let test_topology_settings () =
  let fig12 = Figure.find "fig12" in
  let generate setting n =
    let c =
      List.find
        (fun c -> labelled (setting ^ ", ") c.Figure.label)
        fig12.Figure.curves
    in
    (c.Figure.spec n).Runner.generate
  in
  let rng = Random.State.make [| 1 |] in
  let rl = generate "rl" 9 rng in
  check "rl is a tree" true (Ncg_graph.Tree.is_tree rl);
  let dl = generate "dl" 9 rng in
  check "dl ownership directed" true
    (List.for_all (fun i -> Ncg_graph.Graph.owns dl i (i + 1))
       (List.init 8 (fun i -> i)));
  let rnd = generate "random" 9 rng in
  check_int "random has n edges" 9 (Ncg_graph.Graph.m rnd);
  check "labels" true
    (List.exists (fun c -> labelled "rl, " c.Figure.label) fig12.Figure.curves)

let test_topology_sweep_runs () =
  let fig = figure_slice "fig12" (labelled "dl, a=n/4, ") in
  let curves = Figure.sweep ~ns:[ 10 ] ~trials:2 fig in
  check_int "curves" 2 (List.length curves);
  List.iter
    (fun (c : Series.curve) ->
      List.iter
        (fun (pt : Series.point) ->
          check "trials all converged" true
            (pt.Series.summary.Stats.converged = 2))
        c.Series.points)
    curves

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let fake_curves () =
  let summary steps =
    Stats.summarize
      [ { Engine.reason = Engine.Converged; steps; history = [];
          final = Ncg_graph.Gen.path 2;
          sentinel = Sentinel.clean_report;
          cache = Ncg_game.Distcache.zero_stats;
          residency = Ncg_game.Distcache.zero_residency } ]
  in
  [ { Series.label = "a";
      points =
        [ { Series.n = 10; summary = summary 30 };
          { Series.n = 20; summary = summary 90 } ] };
    { Series.label = "b";
      points = [ { Series.n = 10; summary = summary 55 } ] } ]

let test_series_envelope () =
  let curves = fake_curves () in
  let verdicts = Series.envelope (fun n -> float_of_int (5 * n)) "5n" curves in
  check "a within 5n" true (List.assoc "a: 5n" verdicts);
  check "b above 5n" false (List.assoc "b: 5n" verdicts);
  Alcotest.(check (float 1e-9)) "max_over" 5.5 (Series.max_over curves)

let test_series_rendering () =
  let curves = fake_curves () in
  let table = Series.to_table ~value:`Max curves in
  check "table mentions labels" true
    (Astring_like.contains table "a" && Astring_like.contains table "b");
  check "missing points dashed" true (Astring_like.contains table "-");
  (* labels longer than the 14-character minimum widen every column *)
  let long = [ "m=4n, a=n/10, max cost"; "rl, a=n/2, random" ] in
  let wide =
    Series.to_table
      (List.map2 (fun label c -> { c with Series.label }) long curves)
  in
  let header = List.hd (String.split_on_char '\n' wide) in
  List.iter
    (fun label ->
      check (label ^ " set off by a space") true
        (Astring_like.contains header (" " ^ label)))
    long;
  let dat = Series.to_gnuplot ~value:`Max curves in
  check "gnuplot has comment headers" true (Astring_like.contains dat "# a");
  check "gnuplot data line" true (Astring_like.contains dat "20 90.000");
  let path = Filename.temp_file "ncg" ".dat" in
  Series.write_gnuplot path curves;
  let happy = Sys.file_exists path in
  Sys.remove path;
  check "write_gnuplot creates file" true happy

(* ------------------------------------------------------------------ *)
(* Per-trial time budgets                                              *)
(* ------------------------------------------------------------------ *)

let test_time_budget_is_per_trial () =
  (* [time_budget] is per trial: a sweep must start each trial's deadline
     when that trial starts.  With a 50 ms generator, eight trials take
     0.4 s to generate, longer than one 0.2 s budget, yet every trial
     converges in a few steps alone — so every sweep outcome must read
     exactly what the trial reads run on its own. *)
  let model = Model.make Model.Gbg Model.Sum 10 in
  let spec =
    Runner.spec ~time_budget:0.2 model (fun rng ->
        Unix.sleepf 0.05;
        Ncg_graph.Gen.random_m_edges rng 10 14)
  in
  let show reason steps =
    Printf.sprintf "%d steps%s" steps
      (if reason = Engine.Time_limit then ", time limit" else "")
  in
  List.iteri
    (fun trial o ->
      let solo = Runner.run_trial spec ~seed:3 ~trial in
      match o.Stats.verdict with
      | Stats.Finished { reason; steps } ->
          check
            (Printf.sprintf "trial %d: sweep (%s) = solo (%s)" trial
               (show reason steps)
               (show solo.Engine.reason solo.Engine.steps))
            true
            (reason = solo.Engine.reason && steps = solo.Engine.steps)
      | Stats.Crashed { exn; _ } ->
          Alcotest.failf "trial %d crashed: %s" trial exn)
    (Runner.run_outcomes ~seed:3 ~trials:8 spec)

(* The table must run exactly what the three per-family sweeps it
   replaced ran: each figure's checkpoint, written through the library at
   [ns = 8], 2 trials, seed 2013 and the CLI's fingerprint, is pinned to
   the digest of the file `ncg_sim <fig> --ns 8 --trials 2 --domains 1
   --checkpoint F` wrote before the table existed. *)
let test_figure_checkpoints_pinned () =
  Alcotest.(check (list string)) "figures in paper order"
    [ "fig7"; "fig8"; "fig11"; "fig12"; "fig13"; "fig14" ]
    (List.map (fun f -> f.Figure.name) Figure.all);
  List.iter
    (fun (name, digest, count) ->
      let fig = Figure.find name in
      let labels = List.map (fun c -> c.Figure.label) fig.Figure.curves in
      check_int (name ^ " curves") count (List.length labels);
      check_int (name ^ " labels unique") count
        (List.length (List.sort_uniq compare labels));
      with_temp_checkpoint (fun path ->
          let fingerprint = name ^ " ns=8 trials=2 seed=2013" in
          let cp = Checkpoint.open_ ~fingerprint path in
          ignore (Figure.sweep ~checkpoint:cp ~ns:[ 8 ] ~trials:2 fig);
          Checkpoint.close cp;
          Alcotest.(check string) (name ^ " checkpoint digest") digest
            (Digest.to_hex (Digest.file path))))
    [
      ("fig7", "b93f7fb51de1de032a9150a3c2f85794", 14);
      ("fig8", "36fc88b7190e325c6e722e5cc7b12951", 14);
      ("fig11", "c07f96f290c733448915ba3390d613c6", 12);
      ("fig12", "419cc5d878fd4564aff4afb64858df96", 24);
      ("fig13", "b48886125955f92c03f4b6ae81ecb031", 12);
      ("fig14", "d341bccfc3916fc53581fff59b3c42f7", 24);
    ];
  (* run settings are checked as Runner.spec checks them *)
  Alcotest.check_raises "negative max_retries"
    (Invalid_argument "Runner.spec: max_retries < 0") (fun () ->
      ignore
        (Figure.sweep ~max_retries:(-1) ~ns:[ 8 ] ~trials:1
           (Figure.find "fig7")))

(* ------------------------------------------------------------------ *)
(* Incident-log wire format                                            *)
(* ------------------------------------------------------------------ *)

(* A payload with every character the line format must escape: a quote,
   a backslash, newline, tab, CR and two raw control bytes (plus UTF-8,
   which passes through). *)
let nasty = "q\"b\\s\nn\tt\rr\001\031 café"

(* The exact line of every event kind (and every verdict), pinned byte
   for byte, so no change of codec can change the log's format. *)
let test_incident_lines_pinned () =
  let outcome ?attempts ?degraded reason steps =
    Stats.of_verdict ?attempts ?degraded (Stats.Finished { reason; steps })
  in
  let violation =
    { Audit.kind = Audit.Disconnected; step = 7; subject = Some 4;
      detail = nasty }
  in
  let cases =
    [
      ( Incident_log.Quarantined
          { key = nasty; trial = 3;
            outcome = outcome ~attempts:4 (Engine.Invariant_violation violation) 9 },
        {|{"event":"quarantined","key":"q\"b\\s\nn\tt\rr\u0001\u001f café","trial":3,"attempts":4,"verdict":"invariant_violation","steps":9,"detail":"disconnected at step 7 (vertex 4): q\"b\\s\nn\tt\rr\u0001\u001f café"}|}
      );
      ( Incident_log.Quarantined
          { key = "fig7|n=10"; trial = 0;
            outcome =
              outcome ~attempts:2
                (Engine.Cycle_detected { first_visit = 1; period = 4 }) 12 },
        {|{"event":"quarantined","key":"fig7|n=10","trial":0,"attempts":2,"verdict":"cycle","steps":12}|}
      );
      ( Incident_log.Degraded
          { key = "fig8|n=12"; trial = 5;
            outcome = outcome ~degraded:true Engine.Converged 30 },
        {|{"event":"degraded","key":"fig8|n=12","trial":5,"attempts":1,"verdict":"converged","steps":30}|}
      );
      ( Incident_log.Degraded
          { key = "k"; trial = 1;
            outcome =
              Stats.of_verdict ~attempts:3
                (Stats.Crashed
                   { exn = nasty; backtrace = "Raised at f\nCalled from g\r\n" }) },
        {|{"event":"degraded","key":"k","trial":1,"attempts":3,"verdict":"crashed","exn":"q\"b\\s\nn\tt\rr\u0001\u001f café","backtrace":"Raised at f\nCalled from g\r\n"}|}
      );
      ( Incident_log.Quarantined
          { key = "k"; trial = 2; outcome = outcome Engine.Step_limit 600 },
        {|{"event":"quarantined","key":"k","trial":2,"attempts":1,"verdict":"step_limit","steps":600}|}
      );
      ( Incident_log.Quarantined
          { key = "k"; trial = 2; outcome = outcome Engine.Time_limit 41 },
        {|{"event":"quarantined","key":"k","trial":2,"attempts":1,"verdict":"time_limit","steps":41}|}
      );
      ( Incident_log.Divergence
          { key = nasty; trial = 6;
            incident =
              { Sentinel.step = 11; fingerprint = nasty;
                phase = Sentinel.Selection { fast = Some 3; reference = None } } },
        {|{"event":"divergence","key":"q\"b\\s\nn\tt\rr\u0001\u001f café","trial":6,"step":11,"phase":"selection","fingerprint":"q\"b\\s\nn\tt\rr\u0001\u001f café","detail":"step 11: selection diverged (fast picked 3, reference picked converged) at state q\\\"b\\\\s\\nn\\tt\\rr\\001\\031 caf\\195\\169"}|}
      );
      ( Incident_log.Divergence
          { key = "k"; trial = 0;
            incident =
              { Sentinel.step = 2; fingerprint = "4;0,1<";
                phase = Sentinel.Move_set { agent = 2; fast = []; reference = [] } } },
        {|{"event":"divergence","key":"k","trial":0,"step":2,"phase":"move_set","fingerprint":"4;0,1<","detail":"step 2: move set of agent 2 diverged (fast [], reference []) at state 4;0,1<"}|}
      );
      ( Incident_log.Worker_dead
          { shard = 1; pid = 4242; cause = nasty; lo = 10; hi = 20 },
        {|{"event":"worker_dead","shard":1,"pid":4242,"cause":"q\"b\\s\nn\tt\rr\u0001\u001f café","lo":10,"hi":20}|}
      );
      ( Incident_log.Reassigned { shard = 2; attempt = 3 },
        {|{"event":"reassigned","shard":2,"attempt":3}|} );
      ( Incident_log.Shard_quarantined { shard = 4; lo = 0; hi = 5; attempts = 6 },
        {|{"event":"shard_quarantined","shard":4,"lo":0,"hi":5,"attempts":6}|} );
      ( Incident_log.Job_interrupted
          { job = 17; pid = 99; attempt = 2; cause = nasty },
        {|{"event":"job_interrupted","job":17,"pid":99,"attempt":2,"cause":"q\"b\\s\nn\tt\rr\u0001\u001f café"}|}
      );
      ( Incident_log.Stale_tmp_swept { path = "/tmp/d/x.led.123.tmp"; owner = 123 },
        {|{"event":"stale_tmp_swept","path":"/tmp/d/x.led.123.tmp","owner":123}|}
      );
    ]
  in
  List.iter
    (fun (event, line) ->
      Alcotest.(check string) "pinned line" line
        (Incident_log.json_of_event event))
    cases

let suite =
  ( "experiments",
    [
      Alcotest.test_case "pool map" `Quick test_pool_map;
      Alcotest.test_case "runner determinism" `Quick
        test_runner_deterministic;
      Alcotest.test_case "runner parallel equivalence" `Quick
        test_runner_parallel_matches_sequential;
      Alcotest.test_case "runner convergence" `Quick test_runner_converges;
      Alcotest.test_case "runner survives a crashing trial" `Quick
        test_runner_survives_crashing_trial;
      Alcotest.test_case "runner time budget" `Quick test_runner_time_budget;
      Alcotest.test_case "runner with auditing" `Quick test_runner_audited;
      Alcotest.test_case "checkpoint resume parity" `Quick
        test_checkpoint_resume_parity;
      Alcotest.test_case "checkpoint outcome roundtrip" `Quick
        test_checkpoint_outcome_roundtrip;
      Alcotest.test_case "checkpoint fingerprint mismatch" `Quick
        test_checkpoint_fingerprint_mismatch;
      Alcotest.test_case "checkpoint torn line" `Quick
        test_checkpoint_torn_line_ignored;
      Alcotest.test_case "checkpoint v1 malformed lines surfaced" `Quick
        test_checkpoint_v1_malformed_lines_surfaced;
      Alcotest.test_case "backoff budget" `Quick test_backoff_budget;
      Alcotest.test_case "timeout retries then quarantine" `Quick
        test_timeout_retries_then_quarantine;
      Alcotest.test_case "flaky trial recovers on retry" `Quick
        test_flaky_trial_recovers_on_retry;
      Alcotest.test_case "no retries is historical behavior" `Quick
        test_no_retries_is_historical_behavior;
      Alcotest.test_case "quarantine reaches incident log" `Quick
        test_quarantine_reaches_incident_log;
      Alcotest.test_case "sweep checkpoint resume" `Quick
        test_sweep_checkpoint_resume;
      Alcotest.test_case "asg sweep structure" `Quick
        test_asg_sweep_structure;
      Alcotest.test_case "gbg sweep structure" `Quick
        test_gbg_sweep_structure;
      Alcotest.test_case "topology settings" `Quick test_topology_settings;
      Alcotest.test_case "topology sweep" `Quick test_topology_sweep_runs;
      Alcotest.test_case "series envelopes" `Quick test_series_envelope;
      Alcotest.test_case "series rendering" `Quick test_series_rendering;
      Alcotest.test_case "time budget is per trial" `Quick
        test_time_budget_is_per_trial;
      Alcotest.test_case "figure sweeps match the parent's checkpoints" `Quick
        test_figure_checkpoints_pinned;
      Alcotest.test_case "incident log lines pinned" `Quick
        test_incident_lines_pinned;
    ] )
