(** Crash-safe checkpointing for long trial sweeps (format v2).

    A checkpoint file records every completed trial of a sweep as one
    appended, flushed text line, so an interrupted 10k-trial figure
    reproduction restarts where it left off instead of from zero.  Because
    each trial's RNG derives deterministically from the batch seed and the
    trial index ({!Runner}), a resumed sweep produces bit-identical
    statistics to an uninterrupted one.

    Format v2 (tab-separated, one record per line):
    {v
    # ncg-checkpoint v2 <TAB> <fingerprint>
    <crc32 hex> <TAB> <length> <TAB> <payload>
    v}
    where the payload is
    {v
    <key> <TAB> <trial> <TAB> <tag> <TAB> <verdict fields...>
           <TAB> <attempts> <TAB> <degraded> <TAB> <quarantined>
    v}
    with verdict tags [ok], [cycle], [limit], [time], [fault] and [error]
    — the {!Stats.verdict} taxonomy — plus the retry metadata of
    {!Stats.outcome}.  The {!Durable.frame} (CRC32 over the payload
    bytes, explicit payload length) makes every corruption detectable,
    not just a torn final line: a bit flip fails the CRC, a truncation
    fails the length, and either is {e reported} on load rather than
    silently skipped.  The header is created by {!Durable.replace}, so a
    crash during creation never leaves a half-written header behind;
    records are appended by {!Durable.append_framed}, and loads read
    through {!Durable.read}.

    Loading still recovers the maximal valid set: duplicate records are
    legal (the last one wins — the append-after-resume case), corrupt
    records are counted in the {!load_report} and their trials simply
    rerun.  Files written by format v1 (no CRC) are read transparently
    and atomically migrated to v2 on resume; malformed v1 lines — silently
    dropped by the v1 loader — are now counted and surfaced the same
    way. *)

type t

(** One unreadable line found on load. *)
type corruption = {
  line : int;  (** 1-based line number in the file (line 1 is the header) *)
  reason : string;  (** what check failed, human-readable *)
  tail : bool;
      (** the line was the file's last — the expected artifact of a crash
          mid-append, as opposed to mid-file damage *)
}

type load_report = {
  records : int;  (** valid records loaded *)
  duplicates : int;  (** valid records that replaced an earlier one *)
  corrupted : corruption list;  (** in file order *)
  migrated_from_v1 : bool;
}

val open_ :
  ?resume:bool -> ?incidents:Incident_log.t -> fingerprint:string -> string -> t
(** [open_ ~fingerprint path] starts a fresh checkpoint, truncating any
    existing file; the header reaches [path] atomically
    ({!Durable.replace}).  With [~resume:true] an existing file's records
    are loaded first — see {!load_report} for what was recovered — and
    subsequent records are appended; a v1 file is migrated to v2 in place
    (atomically) before appending.  Stale [path.<pid>.tmp] files left by
    writers that died before their rename are swept first
    ({!Durable.sweep_tmps}, restricted to this file's temps), each
    recorded as a {!Incident_log.event.Stale_tmp_swept} event when
    [?incidents] is given.
    @raise Failure on resume if the file belongs to a different sweep
    configuration (fingerprint mismatch) or is not a checkpoint file. *)

val close : t -> unit

val load_report : t -> load_report
(** What loading found; all-zero for a fresh (non-resumed) checkpoint.
    Callers SHOULD surface [corrupted] to the user — a non-tail corruption
    means the storage, not the process, damaged the file. *)

val loaded : t -> int
(** Number of trial records available from the load (= [records] minus
    [duplicates] of {!load_report}). *)

val completed : t -> key:string -> (int * Stats.outcome) list
(** Loaded outcomes for one sweep point, by trial index; empty unless the
    checkpoint was opened with [~resume:true] on an existing file. *)

val record : t -> key:string -> trial:int -> Stats.outcome -> unit
(** Appends one completed trial as a single unbuffered [write(2)], so
    the record is in the kernel when this returns and survives an
    interruption immediately after; a crash {e during} the call tears at
    most this one CRC-framed line. *)

val path : t -> string

val write_atomically :
  string -> string -> ((string * int) * Stats.outcome) list -> unit
(** [write_atomically path fingerprint records] replaces [path] with a
    complete v2 file holding [records] ({!Durable.replace}).  Readers see
    the old file or the new one, never a mixture — the crash-consistency
    oracle drives every syscall of this sequence under injected faults.
    (Also the primitive behind {!open_}'s fresh-start and v1-migration
    paths.) *)

val pp_load_report : Format.formatter -> load_report -> unit
(** One human-readable line per corruption, plus the totals. *)

(** Result of merging several checkpoint {e shards} (the per-worker files
    a {!Fleet} sweep writes) into one record set. *)
type merge_result = {
  merged : ((string * int) * Stats.outcome) list;
      (** deduplicated records, sorted by (key, trial) *)
  shard_reports : (string * load_report) list;
      (** per existing shard file, in argument order — a torn shard tail
          shows up here exactly as it would on a single-file resume *)
  cross_duplicates : int;
      (** records that appeared in more than one shard; the later shard
          (in argument order) won *)
}

val merge_shards : fingerprint:string -> string list -> merge_result
(** Loads every existing file among [paths] (in order; missing files are
    skipped — the shard never started) and merges their records.  The
    merge is deterministic: duplicates within a shard resolve last-wins
    as on a normal load, duplicates across shards resolve to the latest
    shard in argument order, and [merged] is sorted.
    @raise Failure if a shard belongs to a different sweep (fingerprint
    mismatch) or is not a checkpoint file. *)
