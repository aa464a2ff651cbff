let magic_v2 = "# ncg-checkpoint v2"
let magic_v1 = "# ncg-checkpoint v1"

type corruption = { line : int; reason : string; tail : bool }

type load_report = {
  records : int;
  duplicates : int;
  corrupted : corruption list;
  migrated_from_v1 : bool;
}

let empty_report =
  { records = 0; duplicates = 0; corrupted = []; migrated_from_v1 = false }

type t = {
  path : string;
  fd : Unix.file_descr;
  loaded : (string * int, Stats.outcome) Hashtbl.t;
  report : load_report;
}

let path t = t.path
let load_report t = t.report
let loaded t = Hashtbl.length t.loaded

(* One field per tab; [String.escaped] keeps free text (violation details,
   exception messages) on one line and tab-free. *)
let encode_verdict = function
  | Stats.Finished { reason; steps } -> (
      match reason with
      | Engine.Converged -> Printf.sprintf "ok\t%d" steps
      | Engine.Cycle_detected { first_visit; period } ->
          Printf.sprintf "cycle\t%d\t%d\t%d" steps first_visit period
      | Engine.Step_limit -> Printf.sprintf "limit\t%d" steps
      | Engine.Time_limit -> Printf.sprintf "time\t%d" steps
      | Engine.Invariant_violation v ->
          Printf.sprintf "fault\t%d\t%s\t%d\t%d\t%s" steps
            (Audit.kind_label v.Audit.kind)
            v.Audit.step
            (match v.Audit.subject with Some u -> u | None -> -1)
            (String.escaped v.Audit.detail))
  | Stats.Crashed { exn; backtrace } ->
      Printf.sprintf "error\t%s\t%s" (String.escaped exn)
        (String.escaped backtrace)

let encode_outcome (o : Stats.outcome) =
  Printf.sprintf "%s\t%d\t%d\t%d"
    (encode_verdict o.Stats.verdict)
    o.Stats.attempts
    (if o.Stats.degraded then 1 else 0)
    (if o.Stats.quarantined then 1 else 0)

(* Every verdict tag has a fixed arity, so the decoder can consume exactly
   its fields and hand back the rest (the v2 retry metadata; empty in v1
   records). *)
let decode_verdict fields =
  let int s = int_of_string_opt s in
  match fields with
  | "ok" :: steps :: rest ->
      Option.map
        (fun steps ->
          (Stats.Finished { reason = Engine.Converged; steps }, rest))
        (int steps)
  | "cycle" :: steps :: first_visit :: period :: rest -> (
      match (int steps, int first_visit, int period) with
      | Some steps, Some first_visit, Some period ->
          Some
            ( Stats.Finished
                { reason = Engine.Cycle_detected { first_visit; period };
                  steps },
              rest )
      | _ -> None)
  | "limit" :: steps :: rest ->
      Option.map
        (fun steps ->
          (Stats.Finished { reason = Engine.Step_limit; steps }, rest))
        (int steps)
  | "time" :: steps :: rest ->
      Option.map
        (fun steps ->
          (Stats.Finished { reason = Engine.Time_limit; steps }, rest))
        (int steps)
  | "fault" :: steps :: kind :: vstep :: subject :: detail :: rest -> (
      match (int steps, Audit.kind_of_label kind, int vstep, int subject)
      with
      | Some steps, Some kind, Some vstep, Some subject ->
          let detail = try Scanf.unescaped detail with _ -> detail in
          Some
            ( Stats.Finished
                {
                  reason =
                    Engine.Invariant_violation
                      {
                        Audit.kind;
                        step = vstep;
                        subject = (if subject < 0 then None else Some subject);
                        detail;
                      };
                  steps;
                },
              rest )
      | _ -> None)
  | "error" :: exn :: backtrace :: rest ->
      let unescape s = try Scanf.unescaped s with _ -> s in
      Some
        ( Stats.Crashed
            { exn = unescape exn; backtrace = unescape backtrace },
          rest )
  | _ -> None

let flag = function "0" -> Some false | "1" -> Some true | _ -> None

let decode_outcome fields =
  match decode_verdict fields with
  | None -> None
  | Some (verdict, []) ->
      (* v1 record: no retry metadata *)
      Some (Stats.of_verdict verdict)
  | Some (verdict, [ attempts; degraded; quarantined ]) -> (
      match (int_of_string_opt attempts, flag degraded, flag quarantined)
      with
      | Some attempts, Some degraded, Some quarantined when attempts >= 1 ->
          Some (Stats.of_verdict ~attempts ~degraded ~quarantined verdict)
      | _ -> None)
  | Some _ -> None

(* A trial record's payload: [key TAB trial TAB outcome...]. *)
let decode_payload payload =
  match String.split_on_char '\t' payload with
  | key :: trial :: rest -> (
      match (int_of_string_opt trial, decode_outcome rest) with
      | Some trial, Some outcome -> Some (key, trial, outcome)
      | _ -> None)
  | _ -> None

let encode_record ~key ~trial outcome =
  Printf.sprintf "%s\t%d\t%s" key trial (encode_outcome outcome)

type version = V1 | V2

let parse_header path fingerprint header =
  match String.split_on_char '\t' header with
  | [ m; fp ] when m = magic_v2 || m = magic_v1 ->
      if fp <> String.escaped fingerprint then
        failwith
          (Printf.sprintf
             "checkpoint %s belongs to a different sweep (found %S, expected \
              %S)"
             path fp (String.escaped fingerprint))
      else if m = magic_v2 then V2
      else V1
  | _ -> failwith (Printf.sprintf "%s is not an ncg checkpoint file" path)

let load_existing path fingerprint =
  let header, lines =
    match Durable.read path with
    | Some contents -> contents
    | None -> failwith (Printf.sprintf "%s is empty" path)
  in
  let version = parse_header path fingerprint header in
  let loaded = Hashtbl.create 256 in
  let records = ref 0 and duplicates = ref 0 in
  let corrupted = ref [] in
  let store (key, trial, outcome) =
    incr records;
    if Hashtbl.mem loaded (key, trial) then incr duplicates;
    Hashtbl.replace loaded (key, trial) outcome
  in
  List.iter
    (fun (lineno, line) ->
      let bad reason = corrupted := (lineno, reason) :: !corrupted in
      match version with
      | V2 -> (
          match Durable.unframe line with
          | Error reason -> bad reason
          | Ok payload -> (
              match decode_payload payload with
              | Some r -> store r
              | None -> bad "undecodable record payload"))
      | V1 -> (
          (* v1 had no framing; a malformed line used to be skipped
             silently — now it is counted and surfaced. *)
          match decode_payload line with
          | Some r -> store r
          | None -> bad "undecodable v1 record"))
    lines;
  (* the header is line 1 and the numbering has no gaps *)
  let last = 1 + List.length lines in
  let corrupted =
    List.rev_map
      (fun (line, reason) -> { line; reason; tail = line = last })
      !corrupted
  in
  ( loaded,
    {
      records = !records;
      duplicates = !duplicates;
      corrupted;
      migrated_from_v1 = version = V1;
    } )

(* Deterministic multi-shard merge: shards are loaded in the order given,
   later shards override earlier ones on a duplicate (key, trial), and the
   result is sorted — whatever Hashtbl iteration order did in between, the
   merged list is a function of the shard contents and their order alone. *)
type merge_result = {
  merged : ((string * int) * Stats.outcome) list;
  shard_reports : (string * load_report) list;
  cross_duplicates : int;
}

let merge_shards ~fingerprint paths =
  let acc = Hashtbl.create 1024 in
  let cross = ref 0 in
  let shard_reports =
    List.filter_map
      (fun path ->
        if not (Sys.file_exists path) then None
        else begin
          let tbl, report = load_existing path fingerprint in
          Hashtbl.iter
            (fun k o ->
              if Hashtbl.mem acc k then incr cross;
              Hashtbl.replace acc k o)
            tbl;
          Some (path, report)
        end)
      paths
  in
  let merged =
    List.sort compare (Hashtbl.fold (fun k o l -> (k, o) :: l) acc [])
  in
  { merged; shard_reports; cross_duplicates = !cross }

let sanitize_key key =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) key

(* The complete v2 file (header + the given records), replaced
   atomically: whoever observes [path] sees either the old file or the
   complete new one, never a torn header. *)
let write_atomically path fingerprint records =
  Durable.replace path
    (Durable.framed
       ~header:
         (Printf.sprintf "%s\t%s\n" magic_v2 (String.escaped fingerprint))
       (List.map
          (fun ((key, trial), outcome) -> encode_record ~key ~trial outcome)
          records))

let open_ ?(resume = false) ?incidents ~fingerprint path =
  (* a checkpoint may share its directory (the user's cwd) with anything,
     so sweep only its own temps *)
  ignore
    (Durable.sweep_tmps ?incidents ~only:(Filename.basename path)
       (Filename.dirname path));
  let existing = resume && Sys.file_exists path in
  let loaded, report =
    if existing then load_existing path fingerprint
    else (Hashtbl.create 16, empty_report)
  in
  if (not existing) || report.migrated_from_v1 then
    (* fresh start, or a v1 file being upgraded: (re)write the whole file
       atomically before appending to it *)
    write_atomically path fingerprint
      (if existing then
         Hashtbl.fold (fun k o acc -> (k, o) :: acc) loaded []
       else []);
  let fd =
    Sysx.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  { path; fd; loaded; report }

let close t = try Sysx.close t.fd with Unix.Unix_error _ -> ()

let completed t ~key =
  let key = sanitize_key key in
  Hashtbl.fold
    (fun (k, trial) outcome acc ->
      if k = key then (trial, outcome) :: acc else acc)
    t.loaded []

(* One O_APPEND write(2) per record, unbuffered and not fsynced: the
   record is in the kernel when [record] returns, and a crash mid-call
   tears at most this one line — which the CRC framing catches on the
   next load. *)
let record t ~key ~trial outcome =
  Durable.append_framed t.fd
    [ encode_record ~key:(sanitize_key key) ~trial outcome ]

let pp_load_report fmt r =
  Format.fprintf fmt "%d record%s loaded" r.records
    (if r.records = 1 then "" else "s");
  if r.duplicates > 0 then
    Format.fprintf fmt " (%d superseded by later duplicates)" r.duplicates;
  if r.migrated_from_v1 then Format.fprintf fmt ", migrated from format v1";
  match r.corrupted with
  | [] -> ()
  | cs ->
      Format.fprintf fmt "; %d corrupt line%s:" (List.length cs)
        (if List.length cs = 1 then "" else "s");
      List.iter
        (fun c ->
          Format.fprintf fmt "@\n  line %d: %s%s" c.line c.reason
            (if c.tail then " (torn tail — expected after a crash)" else ""))
        cs
