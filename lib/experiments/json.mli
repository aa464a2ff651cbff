(** Minimal JSON: the one codec for everything the repo emits as JSON.

    The incident log, the cartography report, the bench's [BENCH.json],
    and the service protocol (line-framed over a Unix socket and to its
    worker subprocesses) all render through it — the library
    deliberately takes no dependency beyond the stdlib.
    Values round-trip: [parse (to_string v)] is [v] for every [v] this
    module can produce (integers stay integers; floats always carry a
    decimal point or exponent). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Malformed input; the message says where and what. *)

val parse : string -> t
(** Parses one JSON value spanning the whole string (surrounding
    whitespace allowed).
    @raise Parse_error on malformed input or trailing garbage. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines whatever the payload —
    strings escape control characters), suitable for line framing. *)

(** Accessors: total lookups returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for absent fields and non-objects. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float_opt : t -> float option
(** [Int] or [Float]. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
