(** The shipped gadget collection.

    One entry per hardness construction reproduced from the paper, ready
    for bulk verification by tests and the [ncg_verify] executable. *)

val all : Instance.t list
(** Every shipped instance, in paper order. *)

val find : string -> Instance.t option
(** Lookup by instance name (e.g. ["fig9-sum-gbg"]). *)

val names : unit -> string list
