(** Exact-state encodings and canonical forms under isomorphism.

    A state is the full labelled network including ownership (two states
    with relabelled agents are different strategy profiles even when
    isomorphic).  [key] is injective on states of a fixed vertex count; it
    is the state notion of the naive oracle's cycle check
    ([Reference.run]), the state-space explorer's visited set and the
    sentinel's incident fingerprints.  The fast engine keys visited states
    by an incremental fingerprint instead ([Visited]), exact against these
    keys.  {!normal_form} and {!iso_key} identify networks up to
    relabelling, for the service's result cache, and {!isomorphism}
    finds the relabelling, for the gadgets' closure checks. *)

val key : Graph.t -> string
(** Injective encoding of the labelled, owned graph. *)

val unowned_key : Graph.t -> string
(** Encoding that forgets ownership — the right state notion for Swap Games
    and bilateral games, where ownership does not affect strategies. *)

val state_key : owned:bool -> Graph.t -> string
(** {!key} when [owned], else {!unowned_key}: the state of a game that
    uses ownership iff [owned] ([Model.uses_ownership]). *)

val relabel : Graph.t -> int array -> Graph.t
(** [relabel g f] is [g] with vertex [u] renamed [f.(u)] (owners follow
    their edges).
    @raise Invalid_argument if [f] is not a permutation of the vertices. *)

exception Budget_exceeded
(** {!normal_form}'s search exceeded its node budget — the graph is too
    symmetric to canonicalize within the allotted work.  Callers that
    use canonical forms opportunistically (result caches) should catch
    this and fall back to not deduplicating the instance. *)

val normal_form :
  ?respect_ownership:bool -> ?budget:int -> Graph.t -> Graph.t
(** An isomorphism-invariant relabeling: [normal_form g] and
    [normal_form h] are {e equal} graphs whenever [g] and [h] are
    isomorphic (ownership-respecting by default), and the result is the
    input under {!relabel} by a canonical labelling.  Computed by
    individualization-refinement search for the lexicographically least
    adjacency encoding, with automorphism pruning; [budget] (default
    200k search nodes) bounds the work on pathologically symmetric
    inputs.  Typical instances (random trees, connected graphs, paper
    topologies) refine to near-discrete colorings and canonicalize in
    microseconds; maximally symmetric families still cost ~n^3 search
    nodes (each symmetry must be witnessed once), so e.g. stars stay
    within the default budget up to roughly 80 vertices.  With [~respect_ownership:false] only the edge set is
    canonical — the owners of the returned graph follow the original
    labels and may differ between isomorphic inputs.
    @raise Budget_exceeded when the node budget runs out. *)

val iso_key : ?respect_ownership:bool -> ?budget:int -> Graph.t -> string
(** {!key} (or {!unowned_key} when not respecting ownership) of
    {!normal_form} — equal for isomorphic graphs, distinct otherwise.
    This is the dedupe key for isomorphic-instance traffic: request
    caches keyed by it answer every relabeled copy of an instance from
    one computed result.
    @raise Budget_exceeded as {!normal_form}. *)

val isomorphism :
  ?respect_ownership:bool -> Graph.t -> Graph.t -> int array option
(** [isomorphism g h] is [Some f], with [relabel g f] equal to [h] (up to
    ownership when [~respect_ownership:false]), iff [g] and [h] are
    isomorphic; [f] composes the two graphs' {!normal_form} labellings.
    [None] on a vertex-count, edge-count or normal-form mismatch.
    @raise Budget_exceeded as {!normal_form} at its default budget, on
    either graph. *)
