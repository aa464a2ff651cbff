(** Figure 3 / Theorem 3.3: the SUM-ASG is not weakly acyclic under best
    response; Corollary 3.6's host-graph variant.  Edge set derived
    exactly from the proof's cost computations. *)

val instance : Instance.t
val host_instance : Instance.t
