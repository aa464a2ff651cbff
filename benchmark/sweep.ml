(* The sweep workload: SUM-ASG trials on random budget-2 networks of
   n = 100 agents under the random-unhappy policy, through
   [Runner.run_outcomes ~domains:1] with the runner's defaults (cycle
   detection on) — the paper's Sec. 3.4 experiment.  Every trial runs to
   convergence; the cost board is never built. *)

open Ncg_graph
open Ncg_game
open Ncg_core
open Ncg_experiments
open Report

let n = 100
let budget = 2

(* The rate the runner ran at when the benchmark was defined: a run of
   [--seconds s] sweeps [s * trials_per_s] trials. *)
let trials_per_s = 5.0

let spec () =
  Runner.spec ~policy:Policy.Random_unhappy (Model.make Model.Asg Model.Sum n)
    (fun rng -> Gen.random_budget_network rng n budget)

(* Set-up is building the spec and the first trial's network, about a
   millisecond. *)
let setup ~seed =
  snd
    (timed (fun () ->
         let s = spec () in
         s.Runner.generate (Runner.trial_rng s ~seed ~trial:0 ~attempt:0)))

let converged (o : Stats.outcome) =
  match o.Stats.verdict with
  | Stats.Finished { reason = Engine.Converged; _ } ->
      o.Stats.attempts = 1 && (not o.Stats.degraded) && not o.Stats.quarantined
  | Stats.Finished _ | Stats.Crashed _ -> false

let failures outcomes =
  List.length (List.filter (fun o -> not (converged o)) outcomes)

let steps_of (o : Stats.outcome) =
  match o.Stats.verdict with
  | Stats.Finished { steps; _ } -> steps
  | Stats.Crashed _ -> -1

(* A trial re-run on its own reaches the step count the sweep recorded,
   and its final network is stable and well formed. *)
let recheck s ~seed ~trial outcome =
  let r = Runner.run_trial s ~seed ~trial in
  r.Engine.steps = steps_of outcome
  && Response.is_stable s.Runner.model r.Engine.final
  && Audit.check_graph ~require_connected:true s.Runner.model r.Engine.final = []

let run ~seed ~seconds ~trace ~spans =
  let trials = max 3 (int_of_float (Float.round (trials_per_s *. seconds))) in
  let s = spec () in
  if not trace then begin
    (* The sweep runs as [chunks] consecutive trial ranges of one batch;
       each range gives one rate sample and the run reports their median,
       which a burst of load on a shared machine moves far less than the
       mean over the whole sweep.  Set-up is timed twice before each
       range: samples taken across the whole run, so that a millisecond
       measurement does not rest on the state of one moment. *)
    let chunks = 10 in
    let trials = chunks * max 1 (trials / chunks) in
    let per = trials / chunks in
    let setup_times = ref [] in
    let parts =
      List.init chunks (fun c ->
          setup_times := setup ~seed :: setup ~seed :: !setup_times;
          Gc.compact ();
          let o, wall =
            timed (fun () ->
                Runner.run_outcomes ~domains:1 ~seed
                  ~range:(c * per, (c + 1) * per)
                  ~trials s)
          in
          (o, float_of_int per /. wall))
    in
    let outcomes = List.concat_map fst parts in
    let rates = Array.of_list (List.map snd parts) in
    let failed = failures outcomes in
    let sample = [ 0; trials / 2; trials - 1 ] in
    let rechecked =
      List.for_all
        (fun trial -> recheck s ~seed ~trial (List.nth outcomes trial))
        sample
    in
    {
      correct = failed = 0 && rechecked;
      attempted = trials;
      failed;
      metrics =
        [
          metric "ops_per_s" "1/s" (median rates);
          metric "setup_s" "s" (median (Array.of_list !setup_times));
          metric "peak_rss_mb" "MiB" (peak_rss_mib None);
        ];
    }
  end
  else begin
    (* A third of the trials three times: the traced replica, the runner
       untraced, and each trial alone through [Engine.run] on a shared
       arena — which must follow the replica's trajectory, and whose
       summed time the runner's time is compared against. *)
    let trials = max 1 (trials / 3) in
    let cfg = Runner.engine_config s ~attempt:0 in
    let tr = Trace.create () and counters = Replica.counters () in
    let pool = Replica.create_pool n in
    let gen = Array.make trials 0.0 and ops = Array.make trials 0.0 in
    let replica_engine = ref 0.0 in
    Gc.compact ();
    let replayed =
      Array.init trials (fun trial ->
          let t0 = now () in
          let rng = Runner.trial_rng s ~seed ~trial ~attempt:0 in
          let g = s.Runner.generate rng in
          let t1 = now () in
          let r = Replica.run ~trace:tr ~pool ~counters ~rng cfg g in
          let t2 = now () in
          gen.(trial) <- t1 -. t0;
          ops.(trial) <- t2 -. t0;
          replica_engine := !replica_engine +. (t2 -. t1);
          r)
    in
    Gc.compact ();
    let outcomes, runner_wall =
      timed (fun () -> Runner.run_outcomes ~domains:1 ~seed ~trials s)
    in
    Gc.compact ();
    let arena = Engine.Arena.create n in
    let solo_gen = ref 0.0 and solo_engine = ref 0.0 in
    let agree =
      List.for_all2
        (fun trial outcome ->
          let t0 = now () in
          let rng = Runner.trial_rng s ~seed ~trial ~attempt:0 in
          let g = s.Runner.generate rng in
          let t1 = now () in
          let r = Engine.run ~arena ~rng cfg g in
          let t2 = now () in
          solo_gen := !solo_gen +. (t1 -. t0);
          solo_engine := !solo_engine +. (t2 -. t1);
          converged outcome
          && steps_of outcome = r.Engine.steps
          && Replica.matches replayed.(trial) r)
        (List.init trials Fun.id) outcomes
    in
    Option.iter (Trace.dump tr) spans;
    {
      correct = agree;
      attempted = trials;
      failed = failures outcomes;
      metrics =
        Layers.metrics ~trace:tr ~counters ~ops ~gen
          ~overhead:((!replica_engine /. !solo_engine) -. 1.0)
          ~runner_overhead:
            ((runner_wall -. !solo_gen -. !solo_engine) /. runner_wall)
          ();
    }
  end
