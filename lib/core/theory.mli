(** Closed-form bounds and structural facts from the paper, as executable
    checks.

    Everything here is a statement the test suite compares against
    measured behavior: the convergence bounds of Theorems 2.1 and
    2.11 and Corollary 3.2, the stable-tree classification of Alon et al.
    used throughout Section 2, and the tree lemmas (2.2, 2.4, 2.8,
    Observation 2.9) behind the potential argument. *)

type tree_shape = Star | Double_star | Other_tree | Not_a_tree

val tree_shape : Graph.t -> tree_shape

val stable_tree_shape_ok : Model.t -> Graph.t -> bool
(** Whether a {e stable} tree has the shape theory allows: stars or double
    stars in the MAX games (diameter <= 3), diameter <= 2 in the SUM games.
    Vacuously true for non-trees. *)

val thm21_step_bound : int -> int
(** The explicit [O(n^3)] bound from the proof of Theorem 2.1:
    [n + sum_{i=3}^{n-1} ((n*i - i^2) / 2 + 1)] — an upper bound on MAX-SG
    improving moves on any n-vertex tree. *)

val cor32_parity_bound : int -> int
(** Corollary 3.2, SUM version, max-cost policy on trees: [max(0, n - 3)]
    steps for even [n], [max(0, n + ceil(n/2) - 5)] for odd [n].  The
    SUM-SG stays within it, and its observed worst case meets it at every
    even [n].  The SUM-ASG exceeds it on some trees under every tie
    choice (EXPERIMENTS.md, Cor 3.2). *)

val cor32_asg_envelope : int -> int
(** [max(0, n + ceil(n/2) - 5)] at every [n]: the envelope observed for
    SUM-ASG max-cost runs on trees, the odd-[n] parity bound applied at
    both parities.  Measured, not proved. *)

val nlogn : int -> float
(** [n * log2 n], the Theta-shape of Theorem 2.11 / Corollary 3.2 (MAX). *)

val lemma22_holds : Graph.t -> Move.t -> bool
(** Lemma 2.2/Corollary 2.3 on a tree [T] and an improving MAX swap by
    agent [v]: every vertex on [v]'s side of the removed edge strictly
    decreases its eccentricity.  [true] also when the premise fails. *)

val lemma24_holds : Graph.t -> Move.t -> bool
(** Lemma 2.4: after an improving MAX tree swap, the new cost of any vertex
    on the far side is below the old cost of some near-side vertex —
    checked as [max_{y in B} c_{T'}(y) < max_{x in A} c_T(x)]. *)

val lemma28_holds : Graph.t -> bool
(** Lemma 2.8 on a tree: every center-vertex lies on every longest path —
    equivalently, for every [v] and every farthest target [w] of [v], every
    minimum-eccentricity vertex is on the [v]-[w] path. *)

val obs29_holds : Graph.t -> bool
(** Observation 2.9 on a tree: the two largest eccentricities agree and the
    smallest equals [ceil(max/2)]. *)
