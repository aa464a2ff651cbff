(** The visited states of one run, for exact cycle detection in O(1) per
    step.

    A state is the labelled edge set, with each edge's owner when the game
    uses ownership — the state {!Canonical.key} (or
    {!Canonical.unowned_key}) encodes.  Instead of writing that key out
    every step, this set keys each state by a 63-bit fingerprint, the XOR
    over all edges of a mixed edge code, kept up to date from the move
    primitives ({!Move.apply_observed}) in O(1) each.  Beside it sits a
    journal of the primitives' edge codes with one mark per step.

    A fingerprint hit is only a candidate.  The state after step [k]
    equals the current one iff every edge code toggled since step [k]
    was toggled an even number of times, so a hit is confirmed by sorting
    the journal since [k]'s mark and comparing it in pairs.  Verdicts are
    therefore exactly those of a table of string keys, whatever the
    fingerprints collide on (DESIGN.md §18). *)

type t

val create : ?mix:(int -> int) -> unit -> t
(** An empty set.  [mix] replaces the edge-code mixer and exists for
    tests only: a constant [mix] makes every state collide, so the
    journal check alone decides every verdict. *)

val start : t -> owned:bool -> Graph.t -> unit
(** Forget everything and record [g] as the state after step 0.  [owned]
    makes the owner of each edge part of the state. *)

val note : t -> Graph.t -> Move.prim -> unit
(** Record one primitive, called with the graph just after it (the
    {!Move.apply_observed} hook): the graph supplies an added edge's
    owner. *)

val visit : t -> int option
(** Close the next step: the [k]-th call after {!start} records the
    state after step [k].  [Some j] when the state equals the one after
    step [j] (the first such step; it is not recorded again), [None] when
    the state is new.  Costs O(1) expected without a fingerprint hit, and
    O(p log p) for a hit on a state [p] primitives back. *)
