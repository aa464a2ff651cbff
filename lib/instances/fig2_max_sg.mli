(** Figure 2 / Theorem 2.16: best-response cycle of the MAX-SG with a
    unique unhappy agent in every state.  See the implementation header
    for the reconstruction method. *)

val instance : Instance.t
