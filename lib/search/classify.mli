(** Instance-level game classification (Section 1.2).

    The paper sorts games into poly-FIPG ⊂ FIPG ⊂ BR-WAG ⊂ WAG.  The class
    of a {e game} quantifies over all initial states; for a concrete
    instance the meaningful questions are per-state, and exhaustive
    exploration answers them exactly (up to a state budget):

    - does every improving-move sequence from here terminate? (FIPG-like)
    - does some best-response sequence reach a stable state? (BR-WAG-like)
    - does some improving-move sequence reach one? (WAG-like)

    A [`No] answer to the second/third question from even one state
    refutes BR-WAG / WAG membership of the whole game — that is exactly
    how Theorem 3.3 and the corollaries are checked in this library. *)

type verdict = Yes | No | Unknown
      (** [Unknown]: the state budget ran out before the walk settled it *)

type report = {
  finite_improvement : verdict;
      (** no improving-move cycle among reachable states *)
  br_weakly_acyclic : verdict;
      (** some best-response path reaches a stable state *)
  weakly_acyclic : verdict;
      (** some improving-move path reaches a stable state *)
  states_explored : int;  (** size of the improving-move region *)
}

val classify : ?max_states:int -> Model.t -> Graph.t -> report
(** One {!Statespace.explore} of the improving-move region answers all
    four: its cycle [finite_improvement], its sinks [weakly_acyclic], its
    size [states_explored], and its best-response tags
    [br_weakly_acyclic].  Only when the region is truncated and no tagged
    path reached a sink does a second, [Best_responses] walk answer
    [br_weakly_acyclic].  [max_states] bounds each walk and defaults to
    50_000. *)

val pp : Format.formatter -> report -> unit

(** Equilibrium class of one {e sink} (stable state) of the explored
    region, in the sense of Lenzner's greedy-equilibrium hierarchy: a
    network can be stable under the instance's own move set while being
    or not being a greedy equilibrium (no improving single buy / delete /
    swap of an own edge) or a Nash equilibrium of the Buy Game (no
    improving own-edge strategy whatsoever). *)
type sink_class = {
  game_stable : bool;  (** stable under the instance's own game *)
  greedy_stable : bool;  (** greedy equilibrium (GBG stability) *)
  nash_stable : bool;  (** Nash equilibrium of the Buy Game *)
}

val classify_sink : Model.t -> Graph.t -> sink_class
(** Classifies one network under the instance's model plus its GBG and BG
    variants (same [alpha], host and distance mode).  For games that
    ignore ownership (SG, bilateral) the network is first renormalised to
    the smaller-endpoint ownership labelling, so every representative of
    the same unowned state classifies identically.  Intended for the
    small-[n] sinks {!Statespace.explore} emits; the BG probe enumerates
    strategies exhaustively and inherits {!Response.exhaustive_limit}. *)

