(** Figure 16 / Theorem 5.2: best-response cycle of the MAX bilateral
    equal-split Buy Game, for 2 < alpha < 4. *)

val instance : Instance.t
