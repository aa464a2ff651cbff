(** Figure 15 / Theorem 5.1: the SUM bilateral equal-split Buy Game is not
    weakly acyclic, for 10 < alpha < 12.  Edge set derived exactly from
    the proof's cost computations. *)

val instance : Instance.t
