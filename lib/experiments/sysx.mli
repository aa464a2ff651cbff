(** EINTR-safe system-call wrappers with deterministic fault injection.

    Every long-lived process in this codebase installs signal handlers
    (cooperative stop, drain, heartbeat threads), so any blocking
    syscall can fail with [EINTR] at any time.  The original call sites
    papered over this with broad [Unix.Unix_error _ -> ()] catches,
    which also swallow {e real} errors — a bad fd, a vanished child, a
    full disk.  These wrappers retry exactly [EINTR] and let every other
    error propagate, so callers can catch precisely the errors they
    expect ([ECHILD] after a race to reap, [ESRCH] after a race to
    kill) and nothing else.

    All durable artifacts (checkpoints, leases and the cartography
    files, through {!Durable}; the incident log) and the service wire
    reach the kernel exclusively through these wrappers — their loads as
    well as their writes — which makes them the single interposition
    point for the {!Faulty} layer: a seeded, deterministic fault plan can shorten
    reads and writes, storm [EINTR], raise [EIO]/[ENOSPC]/[EMFILE] at
    the k-th syscall, tear a write mid-record, or kill the process
    immediately before or after a rename.  When disarmed (the default)
    each wrapper costs one ref load and a branch over the raw call. *)

(** Deterministic I/O fault injection.

    A plan is an ordered list of rules; each rule names a syscall class,
    an optional path-substring filter, a 1-based call index [at] counted
    over the calls that match the rule (0 = every matching call, only
    valid for [short=]), and an action.  The textual grammar accepted by
    {!Faulty.parse} is

    {v
      plan   := rule (';' rule)*
      rule   := op ('[' path-substring ']')? '@' k ':' action
      op     := read | write | openfile | close | rename | unlink
              | fsync | fsync_dir | connect | any
      action := short=N        (* cap this read/write at N bytes      *)
              | eintr=N        (* raise EINTR on calls k..k+N-1       *)
              | err=CODE       (* raise CODE (EIO, ENOSPC, EMFILE,
                                  ECONNRESET, EPIPE, EACCES, ENOENT,
                                  EAGAIN, EBADF, EINTR)               *)
              | torn=N         (* write: first N bytes land, then the
                                  process exits — a torn write        *)
              | crash_before   (* exit before the syscall runs        *)
              | crash_after    (* exit after the syscall succeeded    *)
    v}

    Rule counters advance on every matching call whether or not the
    rule fires, so the k-th-call indices are a pure function of the
    syscall stream — given the same plan and the same program, the same
    fault fires at the same point every run.  When several rules fire
    on one call, a destructive action (crash / torn / err) beats a
    throttle (short / eintr); within a class, plan order wins.
    Simulated crashes use [Unix._exit] (default code 70): no [at_exit],
    no buffer flushes — the process vanishes at the faulted syscall
    exactly like a power failure. *)
module Faulty : sig
  type op =
    | Read
    | Write
    | Openfile
    | Close
    | Rename
    | Unlink
    | Fsync
    | Fsync_dir
    | Connect
    | Any  (** matches every op — the crash-point enumerator's workhorse *)

  type action =
    | Short of int
    | Eintr of int
    | Err of Unix.error
    | Torn of int
    | Crash_before
    | Crash_after

  type rule = { op : op; where : string option; at : int; act : action }

  val arm : ?exit_code:int -> ?tracing:bool -> rule list -> unit
  (** Install a fault plan process-wide, resetting all rule counters and
      the trace.  [exit_code] (default 70) is the [Unix._exit] status
      used by crash actions; [tracing] (default false) records every
      faultable syscall for {!trace}. *)

  val disarm : unit -> unit
  (** Remove the plan; all wrappers return to the zero-cost path. *)

  val armed : unit -> bool

  val trace : unit -> (op * string) list
  (** The faultable syscalls seen since {!arm} [~tracing:true], in
      order.  The path is the one given to [openfile]/[rename]/… or
      registered for the fd at open/connect time ([""] for fds the
      armed plan never saw open). *)

  val parse : string -> (rule list, string) result
  (** Parse the plan grammar above.  The empty string is the empty
      plan. *)

  val to_string : rule list -> string
  (** Right inverse of {!parse}. *)

  val op_label : op -> string
  val op_of_label : string -> op option
  val error_label : Unix.error -> string
end

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read], retrying on [EINTR] — including injected EINTR storms,
    which therefore exercise this very retry loop. *)

val write : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.write], retrying on [EINTR]. *)

val write_all : Unix.file_descr -> bytes -> unit
(** Write the whole buffer: retries [EINTR] and resumes short writes. *)

val openfile : string -> Unix.open_flag list -> Unix.file_perm -> Unix.file_descr
(** [Unix.openfile], retrying on [EINTR]; registers the fd's path with
    an armed fault plan so later [read]/[write]/[fsync] calls on it can
    be matched by path filters. *)

val close : Unix.file_descr -> unit
(** [Unix.close], retrying on [EINTR].  Errors propagate: a failed
    close after buffered writes is a real durability signal. *)

val rename : string -> string -> unit
(** [Unix.rename], retrying on [EINTR].  Fault rules match on the
    {e destination} path. *)

val unlink : string -> unit
(** [Unix.unlink], retrying on [EINTR]. *)

val fsync : Unix.file_descr -> unit
(** [Unix.fsync], retrying on [EINTR]. *)

val fsync_dir : string -> unit
(** Open the directory read-only and fsync it, so a preceding rename's
    directory entry survives power failure.  Tolerates [EINVAL]
    (filesystems that cannot fsync a directory) and open failure; other
    fsync errors propagate. *)

val connect : Unix.file_descr -> Unix.sockaddr -> unit
(** [Unix.connect], retrying [EINTR] correctly: an interrupted connect
    completes in the background, so the retry treats
    [EISCONN]/[EALREADY] as success. *)

val waitpid : Unix.wait_flag list -> int -> int * Unix.process_status
(** [Unix.waitpid], retrying on [EINTR]. *)

val reap : int -> unit
(** Blocking [waitpid] on one pid, ignoring only [ECHILD] (someone else
    already reaped it) — any other error propagates. *)

val kill : int -> int -> unit
(** [Unix.kill] of one process, ignoring only [ESRCH] (the process is
    already gone).
    @raise Invalid_argument if the pid is [<= 0], which would signal a
    whole process group. *)

val sleepf : float -> unit
(** Sleep at least the given number of seconds even when interrupted by
    signals: resumes for the remaining time, measured monotonically. *)

val accept : ?stop:(unit -> bool) -> ?poll:float -> Unix.file_descr ->
  (Unix.file_descr * Unix.sockaddr) option
(** [accept fd] accepts one connection, retrying [EINTR] (and the
    transient [EAGAIN]/[ECONNABORTED]); it waits in [select]s of at most
    [poll] seconds (default 0.1) so the [stop] predicate (default:
    never) is re-checked at that granularity and a stopping daemon's
    accept loop ends within one poll even though closing the listening
    fd would not wake a blocked [accept(2)].  Returns [None] once [stop]
    holds. *)
