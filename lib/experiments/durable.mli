(** The durable-file layer: the one implementation of every mechanism
    the on-disk artifacts share — checkpoints ({!Checkpoint}) and worker
    leases ({!Lease}).  DESIGN.md §15 states the rules; callers keep only
    their formats and their tolerance policies.

    Every open, read, write, fsync, rename and unlink goes through
    {!Sysx}, so the fault-injection layer and the crash-consistency
    oracle see reads and writes alike. *)

(** {1 Framing} *)

val frame : string -> string
(** [frame payload] is the line [<crc32 %08x> TAB <length> TAB <payload>]
    (no newline).  The length exposes truncation, the CRC bit flips. *)

val unframe : string -> (string, string) result
(** Inverse of {!frame}: checks the declared length, then the CRC, and
    returns the payload or a human-readable reason. *)

val framed : ?header:string -> string list -> string
(** [framed ?header payloads] is [header] (verbatim, default empty)
    followed by one framed line per payload — the body of every framed
    artifact, for {!replace} or {!append_framed}. *)

(** {1 Writing} *)

val replace : string -> string -> unit
(** [replace path content] atomically replaces [path] with [content]:
    write [<path>.<pid>.tmp], fsync it, close it, rename it over [path],
    fsync the parent directory.  Readers see the old file or the new one;
    a writer killed before the rename leaves only its temp, which
    {!sweep_tmps} removes once the writer is dead.  The temp name is
    unique per process, so concurrent writers of one path never share a
    temp; the last rename wins.  On error the temp is removed with raw
    [Unix] calls (an injected fault must not cascade into cleanup) and
    the exception propagates. *)

val append_framed : ?header:string -> Unix.file_descr -> string list -> unit
(** [append_framed ?header fd payloads] appends {!framed} [?header
    payloads] in a single [write(2)], so a crash tears at most a suffix
    of this batch.  The caller owns [fd] (open it [O_APPEND]) and decides
    whether to fsync. *)

(** {1 Reading} *)

val read : string -> (string * (int * string) list) option
(** [read path] reads the whole file through {!Sysx}, looping until EOF
    (reads may come back short), into a buffer sized from the file.  It
    returns the first line (the header) and the later lines numbered
    from 2, split like [input_line]: a final newline ends the last line
    rather than starting an empty one.  [None] for an empty file.
    @raise Unix.Unix_error if the file cannot be opened or read. *)

(** {1 Stale temps} *)

val sweep_tmps : ?incidents:Incident_log.t -> ?only:string -> string -> int
(** [sweep_tmps dir] removes every [<name>.<pid>.tmp] in [dir] whose
    writer is provably dead: [pid > 0] and [kill(pid, 0)] fails with
    [ESRCH] ([EPERM] counts as alive).  Such a temp is the dropping of a
    writer killed between creating it and renaming it (see {!replace}).
    [~only:name] restricts the sweep to the temps of [dir/name] — for an
    artifact that may share its directory with unrelated files.  Each
    removal is recorded as a {!Incident_log.event.Stale_tmp_swept} event
    when [?incidents] is given.  Returns the number removed; a missing
    or unreadable [dir] sweeps nothing. *)
