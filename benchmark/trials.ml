(* The trial workloads: SUM-GBG trials under the max-cost policy with
   prefer-deletion ties, m = 4n edges and alpha = n/4 — the setting of the
   paper's Greedy Buy Game experiments (Sec. 4.2.1), at the sizes the
   engine's step loop was optimised for.

   A run is a number of independent trials, each a fixed number of steps
   from its own random network.  Each trial gives one rate sample and the
   run reports their median: averaging over networks keeps one unlucky
   input from setting the number, and a median moves far less than a mean
   under a burst of load on a shared machine. *)

open Ncg_graph
open Ncg_game
open Ncg_core
open Report

type spec = {
  n : int;
  budget : int option;  (** distance-cache table budget *)
  steps : int;  (** steps per trial *)
  steps_per_s : float;
      (** the rate the engine ran at when the benchmark was defined: a run
          of [--seconds s] performs about [s * steps_per_s] steps, so the
          work per run is the same on every commit *)
}

let n1000 = { n = 1000; budget = None; steps = 100; steps_per_s = 100.0 }
let n2000_b64 = { n = 2000; budget = Some 64; steps = 3; steps_per_s = 1.5 }

let model n = Model.make ~alpha:(Ncg_rational.Q.make n 4) Model.Gbg Model.Sum n

let config spec =
  Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
    ~max_steps:spec.steps ?cache_budget:spec.budget (model spec.n)

(* Tables pinned during a scan or a move apply may sit above the budget
   while held; the engine's own memory-bound test allows this slack. *)
let pin_slack = 8

(* The trial did all its steps as strictly improving moves, the edge
   count follows from the recorded effects, the final network is well
   formed and connected, and the cache stayed within its budget. *)
let check spec g0 (r : Engine.result) =
  let model = model spec.n in
  let unit_price = Model.unit_price model in
  let delta =
    List.fold_left
      (fun acc s ->
        match s.Engine.effect with
        | Move.Kbuy -> acc + 1
        | Move.Kdelete -> acc - 1
        | Move.Kswap -> acc
        | Move.Kjump -> min_int / 2 (* no strategy jumps in the GBG *))
      0 r.Engine.history
  in
  r.Engine.reason = Engine.Step_limit
  && r.Engine.steps = spec.steps
  && List.length r.Engine.history = spec.steps
  && List.for_all
       (fun s -> Cost.lt ~unit_price s.Engine.cost_after s.Engine.cost_before)
       r.Engine.history
  && Graph.m r.Engine.final = Graph.m g0 + delta
  && Audit.check_graph ~require_connected:true model r.Engine.final = []
  &&
  match spec.budget with
  | None -> true
  | Some b -> r.Engine.residency.Ncg_game.Distcache.peak <= b + pin_slack

(* Run [count] trials; [each] sees every trial's initial network, its
   RNG as the trial starts, and the engine's result with its time.  Set-up
   is generating a trial's network: returns those times. *)
let trials spec ~seed ~count each =
  let cfg = config spec in
  Array.init count (fun i ->
      let g, gen =
        timed (fun () ->
            Gen.random_m_edges (Random.State.make [| seed; spec.n; i |]) spec.n
              (4 * spec.n))
      in
      let rng = Random.State.make [| seed; i; 0xfa57 |] in
      let start = Random.State.copy rng in
      Gc.compact ();
      let r, wall = timed (fun () -> Engine.run ~rng cfg g) in
      each g start r wall;
      gen)

let run spec ~seed ~seconds ~trace ~spans =
  let count =
    max 3
      (int_of_float
         (Float.round (spec.steps_per_s *. seconds /. float_of_int spec.steps)))
  in
  let ok = ref true and failed = ref 0 in
  let tally g r =
    if not (check spec g r) then ok := false;
    failed := !failed + (spec.steps - r.Engine.steps)
  in
  if not trace then begin
    let rates = ref [] in
    let gen =
      trials spec ~seed ~count (fun g _ r wall ->
          tally g r;
          rates := (float_of_int r.Engine.steps /. wall) :: !rates)
    in
    {
      correct = !ok;
      attempted = count * spec.steps;
      failed = !failed;
      metrics =
        [
          metric "ops_per_s" "1/s" (median (Array.of_list !rates));
          metric "setup_s" "s" (median gen);
          metric "peak_rss_mb" "MiB" (peak_rss_mib None);
        ];
    }
  end
  else begin
    (* Half the trials, each twice: the engine, then the traced replica
       from the same network and RNG state, which must follow the same
       trajectory. *)
    let count = max 2 (count / 2) in
    let cfg = config spec in
    let tr = Trace.create () and counters = Replica.counters () in
    let pool = Replica.create_pool ?budget:spec.budget spec.n in
    let replica_wall = ref 0.0 and engine_wall = ref 0.0 in
    let gen =
      trials spec ~seed ~count (fun g start r wall ->
          tally g r;
          Gc.compact ();
          let replayed, t =
            timed (fun () ->
                Replica.run ~trace:tr ~pool ~counters ~rng:start cfg g)
          in
          if not (Replica.matches replayed r) then ok := false;
          replica_wall := !replica_wall +. t;
          engine_wall := !engine_wall +. wall)
    in
    Option.iter (Trace.dump tr) spans;
    {
      correct = !ok;
      attempted = count * spec.steps;
      failed = !failed;
      metrics =
        Layers.metrics ~trace:tr ~counters ~ops:(Trace.step_durations tr) ~gen
          ~overhead:((!replica_wall /. !engine_wall) -. 1.0)
          ();
    }
  end
