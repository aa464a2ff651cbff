type point = { key : string; spec : Runner.spec }

(* One representative curve per figure family, pinned by its legend label
   so the supervisor, its workers, and any out-of-process verifier (chaos
   soak, bench) all look up the exact same spec from the command name and
   n alone. *)
let pinned =
  [
    ("fig7", "k=2 max cost");
    ("fig8", "k=2 max cost");
    ("fig11", "m=4n, a=n/4, max cost");
    ("fig13", "m=4n, a=n/4, max cost");
  ]

let point_names = List.map fst pinned

let point_spec cmd ~n =
  Option.map
    (fun label ->
      let curve =
        List.find
          (fun c -> c.Figure.label = label)
          (Figure.find cmd).Figure.curves
      in
      { key = Printf.sprintf "fleet-%s|n=%d" cmd n;
        spec = curve.Figure.spec n })
    (List.assoc_opt cmd pinned)

let fingerprint ~cmd ~n ~trials ~seed =
  Printf.sprintf "fleet %s n=%d trials=%d seed=%d" cmd n trials seed

let shard_checkpoint ~dir ~shard =
  Filename.concat dir (Printf.sprintf "shard-%04d.ck" shard)

let plan ~trials ~shards =
  if trials < 1 then invalid_arg "Fleet.plan: trials < 1";
  let shards = max 1 (min shards trials) in
  Array.init shards (fun s ->
      (s * trials / shards, (s + 1) * trials / shards))

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

let worker ~dir ~fingerprint ~shard ~key ~seed ~trials ~heartbeat_interval
    ?incidents spec =
  Supervisor.hold ~dir ~fingerprint ~shard ~heartbeat_interval
    (fun lease ~beat ->
      let ck = shard_checkpoint ~dir ~shard in
      (* A predecessor may have died mid-shard: resume its checkpoint so
         surviving trials are loaded, not rerun (a fresh open_ would
         truncate them). *)
      let cp =
        Checkpoint.open_ ~resume:(Sys.file_exists ck) ?incidents ~fingerprint
          ck
      in
      Fun.protect
        ~finally:(fun () -> Checkpoint.close cp)
        (fun () ->
          ignore
            (Runner.run_outcomes ~domains:1 ~seed ~checkpoint:cp ~key
               ?incidents
               ~range:(lease.Lease.lo, lease.Lease.hi)
               ~on_batch:beat ~trials spec));
      Ok ())

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  dir : string;
  fingerprint : string;
  key : string;
  seed : int;
  trials : int;
  shards : int;
  workers : int;
  heartbeat_timeout : float;
  poll_interval : float;
  max_respawns : int;
  spawn : shard:int -> int;
  incidents : Incident_log.t option;
}

type report = {
  summary : Stats.summary;
  outcomes : (int * Stats.outcome) list;
  missing : int list;
  respawns : int;
  quarantined : int list;
  shard_reports : (int * Checkpoint.load_report) list;
  cross_duplicates : int;
}

let merge cfg ~nshards =
  let paths =
    List.init nshards (fun s -> (s, shard_checkpoint ~dir:cfg.dir ~shard:s))
  in
  let m =
    Checkpoint.merge_shards ~fingerprint:cfg.fingerprint (List.map snd paths)
  in
  let by_trial = Hashtbl.create (2 * cfg.trials) in
  List.iter
    (fun ((key, trial), outcome) ->
      if key = cfg.key && trial >= 0 && trial < cfg.trials then
        Hashtbl.replace by_trial trial outcome)
    m.Checkpoint.merged;
  let outcomes = ref [] and missing = ref [] in
  for trial = cfg.trials - 1 downto 0 do
    match Hashtbl.find_opt by_trial trial with
    | Some o -> outcomes := (trial, o) :: !outcomes
    | None -> missing := trial :: !missing
  done;
  let shard_reports =
    List.filter_map
      (fun (s, path) ->
        Option.map (fun r -> (s, r)) (List.assoc_opt path m.Checkpoint.shard_reports))
      paths
  in
  (!outcomes, !missing, shard_reports, m.Checkpoint.cross_duplicates)

let supervise cfg =
  if cfg.workers < 1 then invalid_arg "Fleet.supervise: workers < 1";
  let ranges = plan ~trials:cfg.trials ~shards:cfg.shards in
  let r =
    Supervisor.run
      {
        Supervisor.dir = cfg.dir;
        fingerprint = cfg.fingerprint;
        ranges;
        workers = cfg.workers;
        heartbeat_timeout = cfg.heartbeat_timeout;
        poll_interval = cfg.poll_interval;
        max_respawns = cfg.max_respawns;
        spawn = (fun shard -> cfg.spawn ~shard);
        incidents = cfg.incidents;
      }
  in
  let outcomes, missing, shard_reports, cross_duplicates =
    merge cfg ~nshards:(Array.length ranges)
  in
  {
    summary = Stats.summarize_outcomes (List.map snd outcomes);
    outcomes;
    missing;
    respawns = r.Supervisor.respawns;
    quarantined = List.map fst r.Supervisor.quarantined;
    shard_reports;
    cross_duplicates;
  }
