module Lease = Ncg_experiments.Lease
module Supervisor = Ncg_experiments.Supervisor
module Durable = Ncg_experiments.Durable
module Incident_log = Ncg_experiments.Incident_log
module Json = Ncg_experiments.Json
module Sysx = Ncg_experiments.Sysx
module Runner = Ncg_experiments.Runner
module Catalog = Ncg_instances.Catalog
module Instance = Ncg_instances.Instance

type key_mode = Exact | Iso

type spec = {
  tag : string;
  model : Model.t;
  initial : Graph.t;
  rule : Statespace.successor_rule;
  key_mode : key_mode;
  max_states : int;
}

let rule_label = function
  | Statespace.All_improving -> "improving"
  | Statespace.Best_responses -> "best"

let key_mode_label = function Exact -> "exact" | Iso -> "iso"

let fingerprint spec =
  Printf.sprintf "carto %s rule=%s key=%s max=%d" spec.tag
    (rule_label spec.rule) (key_mode_label spec.key_mode) spec.max_states

let state_key spec g =
  match spec.key_mode with
  | Exact -> Statespace.state_key spec.model g
  | Iso -> (
      let respect_ownership = Model.uses_ownership spec.model in
      (* The budget fallback is deterministic: canonicalisation either
         succeeds for every copy of a state or for none, so the dedupe
         key is still a pure function of the state. *)
      try Canonical.iso_key ~respect_ownership g
      with Canonical.Budget_exceeded -> Statespace.state_key spec.model g)

let encode_state = Canonical.key

let decode_state s =
  let fail why = failwith (Printf.sprintf "decode_state: %s in %S" why s) in
  match String.split_on_char ';' s with
  | [] | [ "" ] -> fail "empty"
  | n_str :: edge_strs ->
      let n = try int_of_string n_str with _ -> fail "bad vertex count" in
      if n < 0 then fail "negative vertex count";
      let g = Graph.create n in
      List.iter
        (fun e ->
          let len = String.length e in
          if len = 0 then fail "empty edge";
          let dir, body =
            match e.[len - 1] with
            | '<' -> (`U, String.sub e 0 (len - 1))
            | '>' -> (`V, String.sub e 0 (len - 1))
            | _ -> (`Min, e)
          in
          match String.index_opt body ',' with
          | None -> fail "edge without comma"
          | Some i ->
              let u, v =
                try
                  ( int_of_string (String.sub body 0 i),
                    int_of_string
                      (String.sub body (i + 1) (String.length body - i - 1)) )
                with _ -> fail "bad endpoint"
              in
              if u < 0 || v < 0 || u >= n || v >= n || u = v then
                fail "endpoint out of range";
              let owner =
                match dir with `U -> u | `V -> v | `Min -> min u v
              in
              Graph.add_edge g ~owner u v)
        edge_strs;
      g

(* ------------------------------------------------------------------ *)
(* Durable artifacts                                                   *)
(* ------------------------------------------------------------------ *)

let magic_meta = "# ncg-carto-meta v1"
let magic_ledger = "# ncg-carto-ledger v1"
let magic_frontier = "# ncg-carto-frontier v1"
let magic_chunk = "# ncg-carto-chunk v1"

(* An empty file reads as an empty header, which each loader below
   judges like any other damaged header. *)
let read_file path = Option.value (Durable.read path) ~default:("", [])

let meta_path dir = Filename.concat dir "carto.meta"

let check_meta ~dir ~fingerprint:fp =
  let path = meta_path dir in
  if Sys.file_exists path then begin
    match String.split_on_char '\t' (fst (read_file path)) with
    | [ magic; fp' ] when magic = magic_meta ->
        if fp' <> fp then
          failwith
            (Printf.sprintf
               "cartography: directory belongs to %S, not %S" fp' fp)
    | _ -> failwith "cartography: not a cartography run directory"
  end
  else Durable.replace path (Printf.sprintf "%s\t%s\n" magic_meta fp)

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

module Ledger = struct
  let parts = 8
  let part_of_key key = Hashtbl.hash key mod parts

  let path ~dir ~part = Filename.concat dir (Printf.sprintf "ledger-%02d.led" part)

  let header fp = Printf.sprintf "%s\t%s\n" magic_ledger fp

  let encode_record (wave, key) = Printf.sprintf "%d\t%s" wave key

  let append ~dir ~fingerprint:fp ~part records =
    if records <> [] then begin
      let p = path ~dir ~part in
      let fresh = not (Sys.file_exists p) in
      let fd =
        Sysx.openfile p [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> try Sysx.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* One write: a crash tears at most the batch's suffix, never an
             earlier record — the contiguous-prefix invariant. *)
          Durable.append_framed
            ?header:(if fresh then Some (header fp) else None)
            fd
            (List.map encode_record records);
          Sysx.fsync fd)
    end

  type load = { entries : (int * string) list; torn_tail : bool }

  let parse_record payload =
    match String.index_opt payload '\t' with
    | None -> None
    | Some i -> (
        match int_of_string_opt (String.sub payload 0 i) with
        | Some wave when wave >= 0 ->
            Some (wave, String.sub payload (i + 1) (String.length payload - i - 1))
        | _ -> None)

  let load_part ~dir ~fingerprint:fp ~part =
    let p = path ~dir ~part in
    if not (Sys.file_exists p) then Ok { entries = []; torn_tail = false }
    else
      let hdr, lines = read_file p in
      match String.split_on_char '\t' hdr with
      | [ magic; fp' ] when magic = magic_ledger && fp' = fp ->
          let rec scan acc = function
            | [] -> Ok { entries = List.rev acc; torn_tail = false }
            | (_, line) :: rest -> (
                match Durable.unframe line with
                | Ok payload -> (
                    match parse_record payload with
                    | Some r -> scan (r :: acc) rest
                    | None ->
                        if rest = [] then
                          Ok { entries = List.rev acc; torn_tail = true }
                        else Error "unparsable record mid-file")
                | Error why ->
                    if rest = [] then
                      Ok { entries = List.rev acc; torn_tail = true }
                    else Error (Printf.sprintf "corrupt record mid-file: %s" why))
          in
          scan [] lines
      | [ magic; _ ] when magic = magic_ledger -> Error "foreign fingerprint"
      | _ ->
          (* A torn first write of a fresh partition can tear the header
             itself; with no complete record in the file this is the
             crash artifact, not damage. *)
          if String.length hdr >= String.length magic_ledger then
            Error "not a ledger file"
          else Ok { entries = []; torn_tail = true }

  let load_all ~dir ~fingerprint:fp =
    let seen = Hashtbl.create 4096 in
    let rec loop part =
      if part >= parts then Ok seen
      else
        match load_part ~dir ~fingerprint:fp ~part with
        | Error e -> Error (Printf.sprintf "partition %d: %s" part e)
        | Ok { torn_tail = true; _ } ->
            Error (Printf.sprintf "partition %d: unrepaired torn tail" part)
        | Ok { entries; _ } ->
            List.iter (fun (wave, key) -> Hashtbl.replace seen key wave) entries;
            loop (part + 1)
    in
    loop 0

  let rollback ~dir ~fingerprint:fp ~max_wave =
    let dropped = ref 0 in
    for part = 0 to parts - 1 do
      match load_part ~dir ~fingerprint:fp ~part with
      | Error e -> failwith (Printf.sprintf "ledger partition %d: %s" part e)
      | Ok { entries; torn_tail } ->
          let keep = List.filter (fun (wave, _) -> wave <= max_wave) entries in
          let nkeep = List.length keep and nall = List.length entries in
          dropped := !dropped + (nall - nkeep);
          if nkeep < nall || torn_tail then
            Durable.replace (path ~dir ~part)
              (Durable.framed ~header:(header fp) (List.map encode_record keep))
    done;
    !dropped
end

(* ------------------------------------------------------------------ *)
(* Frontier files                                                      *)
(* ------------------------------------------------------------------ *)

let frontier_path dir wave = Filename.concat dir (Printf.sprintf "frontier-%04d.fr" wave)

let write_frontier ~dir ~fingerprint:fp ~wave ~truncated states =
  Durable.replace (frontier_path dir wave)
    (Durable.framed
       ~header:
         (Printf.sprintf "%s\t%s\twave=%d\tcount=%d\ttrunc=%d\n"
            magic_frontier fp wave (List.length states)
            (if truncated then 1 else 0))
       (List.map (fun (key, enc) -> Printf.sprintf "%s\t%s" key enc) states))

(* Frontier files are written atomically, so unlike the ledger nothing
   short of storage damage can leave one torn: every parse failure is an
   Error. *)
let load_frontier ~dir ~fingerprint:fp ~wave =
  let p = frontier_path dir wave in
  if not (Sys.file_exists p) then Ok None
  else
    let hdr, lines = read_file p in
    match String.split_on_char '\t' hdr with
    | [ magic; fp'; wave_f; count_f; trunc_f ]
      when magic = magic_frontier && fp' = fp
           && wave_f = Printf.sprintf "wave=%d" wave -> (
        let count =
          match String.split_on_char '=' count_f with
          | [ "count"; n ] -> int_of_string_opt n
          | _ -> None
        in
        let trunc =
          match trunc_f with
          | "trunc=0" -> Some false
          | "trunc=1" -> Some true
          | _ -> None
        in
        match (count, trunc) with
        | Some count, Some trunc -> (
            let rec scan acc = function
              | [] -> Ok (List.rev acc)
              | (_, line) :: rest -> (
                  match Durable.unframe line with
                  | Error why -> Error ("corrupt frontier record: " ^ why)
                  | Ok payload -> (
                      match String.index_opt payload '\t' with
                      | None -> Error "frontier record without encoding"
                      | Some i ->
                          scan
                            (( String.sub payload 0 i,
                               String.sub payload (i + 1)
                                 (String.length payload - i - 1) )
                            :: acc)
                            rest))
            in
            match scan [] lines with
            | Error _ as e -> e
            | Ok states ->
                if List.length states <> count then
                  Error "frontier count mismatch"
                else Ok (Some (states, trunc)))
        | _ -> Error "bad frontier header fields")
    | _ -> Error "foreign or damaged frontier header"

(* ------------------------------------------------------------------ *)
(* Chunk (arc) files                                                   *)
(* ------------------------------------------------------------------ *)

type expansion = {
  src : string;
  nsucc : int;
  arcs : (string * string) list;
}

let wave_dir dir wave = Filename.concat dir (Printf.sprintf "wave-%04d" wave)

let chunk_path wdir chunk = Filename.concat wdir (Printf.sprintf "chunk-%04d.arcs" chunk)

let write_chunk ~wdir ~fingerprint:fp ~wave ~chunk ~lo ~hi expansions =
  let records =
    List.concat_map
      (fun e ->
        Printf.sprintf "x\t%s\t%d" e.src e.nsucc
        :: List.map
             (fun (succ, enc) -> Printf.sprintf "a\t%s\t%s\t%s" e.src succ enc)
             e.arcs)
      expansions
  in
  let nx = List.length expansions in
  Durable.replace (chunk_path wdir chunk)
    (Durable.framed
       ~header:
         (Printf.sprintf "%s\t%s\twave=%d\tchunk=%d\tlo=%d\thi=%d\n"
            magic_chunk fp wave chunk lo hi)
       (records
       @ [ Printf.sprintf "end\t%d\t%d" nx (List.length records - nx) ]))

(* Chunk files are written atomically; any inconsistency means the file
   is not a committed chunk (stale plan, foreign run, storage damage) and
   the loader reports [None] — the chunk simply counts as not done. *)
let load_chunk ~fingerprint:fp ~wave path =
  if not (Sys.file_exists path) then None
  else
    let hdr, lines = read_file path in
    match String.split_on_char '\t' hdr with
    | magic :: fp' :: wave_f :: _
      when magic = magic_chunk && fp' = fp
           && wave_f = Printf.sprintf "wave=%d" wave -> (
        let rec scan xs arcs saw_end = function
          | [] -> if saw_end then Some (List.rev xs, List.rev arcs) else None
          | _ when saw_end -> None (* records after the end marker *)
          | (_, line) :: rest -> (
              match Durable.unframe line with
              | Error _ -> None
              | Ok payload -> (
                  match String.split_on_char '\t' payload with
                  | [ "x"; src; nsucc ] -> (
                      match int_of_string_opt nsucc with
                      | Some n when n >= 0 ->
                          scan ((src, n) :: xs) arcs false rest
                      | _ -> None)
                  | [ "a"; src; succ; enc ] ->
                      scan xs ((src, succ, enc) :: arcs) false rest
                  | [ "end"; nx; na ] ->
                      if
                        int_of_string_opt nx = Some (List.length xs)
                        && int_of_string_opt na = Some (List.length arcs)
                      then scan xs arcs true rest
                      else None
                  | _ -> None))
        in
        scan [] [] false lines)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

let lease_fingerprint spec wave =
  Printf.sprintf "%s wave=%d" (fingerprint spec) wave

(* Expand one state.  Deterministic: move enumeration order is fixed, the
   per-source successor dedupe keeps the first occurrence, and the
   seen-filter is the ledger as of this wave — identical for every replay
   of the chunk, because the ledger only grows when a later wave commits. *)
let expand_state spec ~seen g =
  let moves = Statespace.successor_moves spec.rule spec.model g in
  let local = Hashtbl.create 8 in
  let arcs =
    List.filter_map
      (fun move ->
        let token = Move.apply g move in
        let key' = state_key spec g in
        let enc' = encode_state g in
        Move.undo g token;
        if Hashtbl.mem local key' then None
        else begin
          Hashtbl.replace local key' ();
          Some (key', (if Hashtbl.mem seen key' then "" else enc'))
        end)
      moves
  in
  (List.length moves, arcs)

let worker ~dir ~wave ~chunk ~heartbeat_interval ?(throttle_ms = 0) spec =
  let fp = fingerprint spec in
  let wdir = wave_dir dir wave in
  Supervisor.hold ~dir:wdir ~fingerprint:(lease_fingerprint spec wave)
    ~shard:chunk ~heartbeat_interval (fun lease ~beat ->
      match load_frontier ~dir ~fingerprint:fp ~wave with
      | Error e -> Error (Printf.sprintf "frontier %d: %s" wave e)
      | Ok None -> Error (Printf.sprintf "frontier %d missing" wave)
      | Ok (Some (states, _)) -> (
          match Ledger.load_all ~dir ~fingerprint:fp with
          | Error e -> Error (Printf.sprintf "ledger: %s" e)
          | Ok seen ->
              let states = Array.of_list states in
              let lo = max 0 lease.Lease.lo in
              let hi = min (Array.length states) lease.Lease.hi in
              let expansions = ref [] in
              for i = hi - 1 downto lo do
                let key, enc = states.(i) in
                let g = decode_state enc in
                let recomputed = state_key spec g in
                if recomputed <> key then
                  failwith
                    (Printf.sprintf
                       "frontier %d state %d: key %S does not match its \
                        encoding (%S)"
                       wave i key recomputed);
                let nsucc, arcs = expand_state spec ~seen g in
                expansions := { src = key; nsucc; arcs } :: !expansions;
                if throttle_ms > 0 then
                  Sysx.sleepf (float_of_int throttle_ms /. 1000.);
                beat ()
              done;
              write_chunk ~wdir ~fingerprint:fp ~wave ~chunk ~lo:lease.Lease.lo
                ~hi:lease.Lease.hi !expansions;
              Ok ()))

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  dir : string;
  chunk_size : int;
  workers : int;
  heartbeat_interval : float;
  heartbeat_timeout : float;
  poll_interval : float;
  max_respawns : int;
  throttle_ms : int;
  spawn : (wave:int -> chunk:int -> int) option;
  incidents : Incident_log.t option;
  on_wave : (wave:int -> frontier:int -> explored:int -> unit) option;
}

let default_config ~dir =
  {
    dir;
    chunk_size = 64;
    workers = 1;
    heartbeat_interval = 1.0;
    heartbeat_timeout = 5.0;
    poll_interval = 0.05;
    max_respawns = 3;
    throttle_ms = 0;
    spawn = None;
    incidents = None;
    on_wave = None;
  }

type report = {
  explored : int;
  stable : (string * string) list;
  waves : int;
  arcs : int;
  has_cycle : bool;
  largest_scc : int;
  nontrivial_sccs : int;
  truncated : bool;
  respawns : int;
  resumed : bool;
  rolled_back : int;
  region_fingerprint : string;
}

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let chunk_plan ~count ~chunk_size =
  let size = max 1 chunk_size in
  let n = (count + size - 1) / size in
  Array.init n (fun s -> (s * size, min count ((s + 1) * size)))

(* Merge every committed chunk file of one wave.  Chunk files are pure
   functions of (fingerprint, wave, source states), so files left behind
   by an earlier run with a different chunking overlap consistently with
   the current plan's — first occurrence wins, and the only requirement
   is that the union covers the wave's frontier. *)
let merge_wave ~dir ~fingerprint:fp ~wave frontier =
  let wdir = wave_dir dir wave in
  let names = try Sys.readdir wdir with Sys_error _ -> [||] in
  Array.sort compare names;
  let xs : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let arc_seen : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  let arcs = ref [] in
  Array.iter
    (fun name ->
      if
        String.length name >= 11
        && String.sub name 0 6 = "chunk-"
        && Filename.check_suffix name ".arcs"
      then
        match load_chunk ~fingerprint:fp ~wave (Filename.concat wdir name) with
        | None -> ()
        | Some (chunk_xs, chunk_arcs) ->
            List.iter
              (fun (src, nsucc) ->
                if not (Hashtbl.mem xs src) then Hashtbl.replace xs src nsucc)
              chunk_xs;
            List.iter
              (fun (src, succ, enc) ->
                if not (Hashtbl.mem arc_seen (src, succ)) then begin
                  Hashtbl.replace arc_seen (src, succ) ();
                  arcs := (src, succ, enc) :: !arcs
                end)
              chunk_arcs)
    names;
  List.iter
    (fun (key, _) ->
      if not (Hashtbl.mem xs key) then
        failwith
          (Printf.sprintf
             "cartography: wave %d chunk files do not cover state %S" wave key))
    frontier;
  (xs, List.rev !arcs)

(* Run one wave's expansion to completion: every chunk lease Done with a
   committed chunk file.  In-process when [spawn] is None (the reference
   path), else under Supervisor.run — but a chunk that exhausts its
   respawns aborts the run instead of being quarantined, because an
   incomplete region is not a smaller answer, it is a wrong one. *)
let run_wave cfg spec ~wave ~count =
  let fp = fingerprint spec in
  let wdir = wave_dir cfg.dir wave in
  let lfp = lease_fingerprint spec wave in
  let ranges = chunk_plan ~count ~chunk_size:cfg.chunk_size in
  let committed s =
    load_chunk ~fingerprint:fp ~wave (chunk_path wdir s) <> None
  in
  match cfg.spawn with
  | None ->
      List.iter
        (fun s ->
          if Runner.stop_requested () then raise Runner.Interrupted;
          let lo, hi = ranges.(s) in
          Supervisor.assign ~dir:wdir ~fingerprint:lfp ~shard:s ~lo ~hi;
          match
            worker ~dir:cfg.dir ~wave ~chunk:s
              ~heartbeat_interval:cfg.heartbeat_interval
              ~throttle_ms:cfg.throttle_ms spec
          with
          | Ok () -> ()
          | Error e ->
              failwith (Printf.sprintf "cartography: chunk %d of wave %d: %s" s wave e))
        (Supervisor.reconcile ~dir:wdir ~fingerprint:lfp
           ?incidents:cfg.incidents ~committed ranges);
      0
  | Some spawn -> (
      let r =
        Supervisor.run ~committed
          {
            Supervisor.dir = wdir;
            fingerprint = lfp;
            ranges;
            workers = max 1 cfg.workers;
            heartbeat_timeout = cfg.heartbeat_timeout;
            poll_interval = cfg.poll_interval;
            max_respawns = cfg.max_respawns;
            spawn = (fun chunk -> spawn ~wave ~chunk);
            incidents = cfg.incidents;
          }
      in
      match r.Supervisor.quarantined with
      | [] -> r.Supervisor.respawns
      | (s, cause) :: _ ->
          failwith
            (Printf.sprintf
               "cartography: chunk %d of wave %d failed %d attempts (%s)" s
               wave (cfg.max_respawns + 1) cause))

(* ------------------------------------------------------------------ *)
(* SCC pass (iterative Tarjan)                                         *)
(* ------------------------------------------------------------------ *)

let tarjan ~n adj =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let tstack = ref [] in
  let counter = ref 0 and ncomp = ref 0 in
  let call = Stack.create () in
  let visit v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    tstack := v :: !tstack;
    on_stack.(v) <- true;
    Stack.push (v, ref 0) call
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while not (Stack.is_empty call) do
        let v, next = Stack.top call in
        if !next < Array.length adj.(v) then begin
          let w = adj.(v).(!next) in
          incr next;
          if index.(w) < 0 then visit w
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          ignore (Stack.pop call);
          (match Stack.top_opt call with
          | Some (u, _) -> low.(u) <- min low.(u) low.(v)
          | None -> ());
          if low.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              match !tstack with
              | [] -> assert false
              | w :: rest ->
                  tstack := rest;
                  on_stack.(w) <- false;
                  comp.(w) <- !ncomp;
                  if w = v then continue := false
            done;
            incr ncomp
          end
        end
      done
    end
  done;
  (comp, !ncomp)

(* ------------------------------------------------------------------ *)
(* The full run                                                        *)
(* ------------------------------------------------------------------ *)

let crc_chain acc s = Durable.crc32 (Printf.sprintf "%08x|%s" acc s)

let run cfg spec =
  if cfg.chunk_size < 1 then invalid_arg "Cartography.run: chunk_size < 1";
  let fp = fingerprint spec in
  ensure_dir cfg.dir;
  check_meta ~dir:cfg.dir ~fingerprint:fp;
  ignore (Durable.sweep_tmps ?incidents:cfg.incidents cfg.dir);
  (* --- recovery: find the committed prefix --------------------------- *)
  let max_frontier =
    let rec scan k =
      if Sys.file_exists (frontier_path cfg.dir k) then scan (k + 1) else k - 1
    in
    scan 0
  in
  let resumed = max_frontier >= 0 in
  let rolled_back =
    Ledger.rollback ~dir:cfg.dir ~fingerprint:fp ~max_wave:max_frontier
  in
  let start_wave =
    if resumed then max_frontier
    else begin
      (* Fresh run: wave 0 is the initial state.  Ledger first, frontier
         second — the same ahead-allowed order every later wave uses, so
         a crash between the two replays identically. *)
      let g0 = Graph.copy spec.initial in
      let key0 = state_key spec g0 in
      let enc0 = encode_state g0 in
      Ledger.append ~dir:cfg.dir ~fingerprint:fp ~part:(Ledger.part_of_key key0)
        [ (0, key0) ];
      write_frontier ~dir:cfg.dir ~fingerprint:fp ~wave:0 ~truncated:false
        [ (key0, enc0) ];
      0
    end
  in
  let seen =
    match Ledger.load_all ~dir:cfg.dir ~fingerprint:fp with
    | Ok seen -> seen
    | Error e -> failwith ("cartography: ledger: " ^ e)
  in
  (* Exactly-once audit of the committed prefix: every ledger record is
     implied by a committed frontier and vice versa. *)
  let truncated = ref false in
  let frontiers = ref [] in
  for w = 0 to start_wave do
    match load_frontier ~dir:cfg.dir ~fingerprint:fp ~wave:w with
    | Error e -> failwith (Printf.sprintf "cartography: frontier %d: %s" w e)
    | Ok None -> failwith (Printf.sprintf "cartography: frontier %d vanished" w)
    | Ok (Some (states, trunc)) ->
        if trunc then truncated := true;
        List.iter
          (fun (key, _) ->
            match Hashtbl.find_opt seen key with
            | Some w' when w' = w -> ()
            | Some w' ->
                failwith
                  (Printf.sprintf
                     "cartography: state %S committed in wave %d but ledgered \
                      in wave %d"
                     key w w')
            | None ->
                failwith
                  (Printf.sprintf
                     "cartography: state %S committed in wave %d missing from \
                      the ledger"
                     key w))
          states;
        frontiers := (w, states) :: !frontiers
  done;
  if Hashtbl.length seen <> List.fold_left (fun n (_, s) -> n + List.length s) 0 !frontiers
  then failwith "cartography: ledger holds states no frontier committed";
  (* --- expand wave by wave ------------------------------------------- *)
  let explored = ref (Hashtbl.length seen) in
  let respawns = ref 0 in
  let wave = ref start_wave in
  let finished = ref false in
  while not !finished do
    let states =
      match List.assoc_opt !wave !frontiers with
      | Some s -> s
      | None -> (
          match load_frontier ~dir:cfg.dir ~fingerprint:fp ~wave:!wave with
          | Ok (Some (s, trunc)) ->
              if trunc then truncated := true;
              frontiers := (!wave, s) :: !frontiers;
              s
          | Ok None ->
              failwith (Printf.sprintf "cartography: frontier %d vanished" !wave)
          | Error e ->
              failwith (Printf.sprintf "cartography: frontier %d: %s" !wave e))
    in
    if states = [] then finished := true
    else begin
      let count = List.length states in
      respawns := !respawns + run_wave cfg spec ~wave:!wave ~count;
      let _xs, arcs = merge_wave ~dir:cfg.dir ~fingerprint:fp ~wave:!wave states in
      (* The wave's newly discovered states: deterministic merge — sort
         by key (ties by encoding, which only differ under Iso keying)
         and keep the first representative. *)
      let candidates =
        List.filter_map
          (fun (_, succ, enc) ->
            if enc <> "" && not (Hashtbl.mem seen succ) then Some (succ, enc)
            else None)
          arcs
        |> List.sort_uniq compare
      in
      (* keep-first per key: the list is sorted by (key, enc), so each
         key's group is adjacent and its least encoding survives — the
         representative choice is deterministic, never chunk-order *)
      let candidates =
        List.rev
          (List.fold_left
             (fun acc (k, e) ->
               match acc with
               | (k', _) :: _ when k' = k -> acc
               | _ -> (k, e) :: acc)
             [] candidates)
      in
      let room = spec.max_states - !explored in
      let admitted =
        if List.length candidates > room then begin
          truncated := true;
          List.filteri (fun i _ -> i < room) candidates
        end
        else candidates
      in
      (* Ledger ahead of frontier: appends first (fsynced), the frontier
         rename is the commit point. *)
      let buckets = Array.make Ledger.parts [] in
      List.iter
        (fun (key, _) ->
          let p = Ledger.part_of_key key in
          buckets.(p) <- (!wave + 1, key) :: buckets.(p))
        admitted;
      Array.iteri
        (fun part records ->
          Ledger.append ~dir:cfg.dir ~fingerprint:fp ~part (List.rev records))
        buckets;
      write_frontier ~dir:cfg.dir ~fingerprint:fp ~wave:(!wave + 1)
        ~truncated:!truncated admitted;
      List.iter (fun (key, _) -> Hashtbl.replace seen key (!wave + 1)) admitted;
      explored := !explored + List.length admitted;
      frontiers := (!wave + 1, admitted) :: !frontiers;
      (match cfg.on_wave with
      | Some hook ->
          hook ~wave:!wave ~frontier:(List.length admitted) ~explored:!explored
      | None -> ());
      incr wave
    end
  done;
  let waves = !wave in
  (* --- merge the region graph and run the SCC pass ------------------- *)
  let n = !explored in
  let ids : (string, int) Hashtbl.t = Hashtbl.create (2 * n) in
  let keys_in_order = Array.make n "" in
  let next_id = ref 0 in
  for w = 0 to waves - 1 do
    List.iter
      (fun (key, _) ->
        Hashtbl.replace ids key !next_id;
        keys_in_order.(!next_id) <- key;
        incr next_id)
      (List.assoc w !frontiers)
  done;
  if !next_id <> n then failwith "cartography: frontier/ledger state count drift";
  let stable = ref [] in
  let adj_lists = Array.make n [] in
  let narcs = ref 0 in
  let self_loop = ref false in
  for w = 0 to waves - 1 do
    let states = List.assoc w !frontiers in
    let xs, arcs = merge_wave ~dir:cfg.dir ~fingerprint:fp ~wave:w states in
    List.iter
      (fun (key, enc) ->
        match Hashtbl.find_opt xs key with
        | Some 0 -> stable := (key, enc) :: !stable
        | Some _ -> ()
        | None -> failwith "cartography: expansion record vanished after merge")
      states;
    List.iter
      (fun (src, succ, _) ->
        match (Hashtbl.find_opt ids src, Hashtbl.find_opt ids succ) with
        | Some i, Some j ->
            incr narcs;
            if i = j then self_loop := true;
            adj_lists.(i) <- j :: adj_lists.(i)
        | _ ->
            (* the successor fell to the max_states budget: the arc leads
               out of the committed region *)
            ())
      arcs
  done;
  let adj = Array.map (fun l -> Array.of_list (List.rev l)) adj_lists in
  let comp, ncomp = tarjan ~n adj in
  let sizes = Array.make (max 1 ncomp) 0 in
  Array.iter (fun c -> if c >= 0 then sizes.(c) <- sizes.(c) + 1) comp;
  let largest_scc = Array.fold_left max 0 sizes in
  let nontrivial_sccs =
    Array.fold_left (fun acc s -> if s >= 2 then acc + 1 else acc) 0 sizes
  in
  let has_cycle = largest_scc >= 2 || !self_loop in
  let stable = List.sort compare !stable in
  let fpr = ref (Durable.crc32 fp) in
  Array.iter (fun key -> fpr := crc_chain !fpr key) keys_in_order;
  fpr := crc_chain !fpr "stable";
  List.iter (fun (key, _) -> fpr := crc_chain !fpr key) stable;
  let region_fingerprint = Printf.sprintf "%08x-%d" !fpr n in
  {
    explored = n;
    stable;
    waves;
    arcs = !narcs;
    has_cycle;
    largest_scc;
    nontrivial_sccs;
    truncated = !truncated;
    respawns = !respawns;
    resumed;
    rolled_back;
    region_fingerprint;
  }

(* ------------------------------------------------------------------ *)
(* Reporting and pinned points                                         *)
(* ------------------------------------------------------------------ *)

let report_json r =
  Json.to_string
    (Json.Obj
       [
         ("explored", Json.Int r.explored);
         ("waves", Json.Int r.waves);
         ("arcs", Json.Int r.arcs);
         ("stable", Json.List (List.map (fun (key, _) -> Json.Str key) r.stable));
         ("has_cycle", Json.Bool r.has_cycle);
         ("largest_scc", Json.Int r.largest_scc);
         ("nontrivial_sccs", Json.Int r.nontrivial_sccs);
         ("truncated", Json.Bool r.truncated);
         ("respawns", Json.Int r.respawns);
         ("resumed", Json.Bool r.resumed);
         ("rolled_back", Json.Int r.rolled_back);
         ("region_fingerprint", Json.Str r.region_fingerprint);
       ])

let point_names =
  [ "fig2-br"; "fig2-imp"; "path5-max-sg"; "path6-max-sg"; "path7-max-sg";
    "path8-max-sg"; "path9-max-sg" ]

let path_n name =
  try Scanf.sscanf name "path%d-max-sg%!" (fun n -> Some n)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

let point_spec ?(max_states = 200_000) name =
  let mk tag model initial rule =
    Some { tag; model; initial; rule; key_mode = Exact; max_states }
  in
  match name with
  | "fig2-br" | "fig2-imp" -> (
      match Catalog.find "fig2-max-sg" with
      | None -> None
      | Some i ->
          mk name i.Instance.model i.Instance.initial
            (if name = "fig2-br" then Statespace.Best_responses
             else Statespace.All_improving))
  | name -> (
      match path_n name with
      | Some n when n >= 3 && n <= 12 ->
          mk name (Model.make Model.Sg Model.Max n) (Gen.path n)
            Statespace.All_improving
      | _ -> (
          match Catalog.find name with
          | Some i ->
              mk name i.Instance.model i.Instance.initial
                Statespace.All_improving
          | None -> None))
