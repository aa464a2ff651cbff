(** Result series and their presentation.

    A figure in the paper is a family of curves — one per configuration —
    with the number of agents on the x axis and steps-to-convergence on the
    y axis.  This module renders those families as aligned text tables
    (what [ncg_sim] prints) and as gnuplot-ready data files, and
    carries enough metadata to compare against the paper's envelopes
    (e.g. "every run below 5n"). *)

type point = {
  n : int;
  summary : Ncg_core.Stats.summary;
}

type curve = {
  label : string;  (** e.g. "k=2 max cost" — the paper's legend strings *)
  points : point list;
}

val envelope : (int -> float) -> string -> curve list -> (string * bool) list
(** [envelope f desc curves] checks, for every point of every curve, that
    every run converged and [max_steps <= f n]; returns per-curve
    verdicts labelled ["<curve label>: <desc>"]. *)

val max_over : curve list -> float
(** Largest [max_steps / n] ratio across all points — the paper's "no run
    took longer than 5n" summary statistic.  [max_steps] counts converged
    runs only, so a run that did not converge is left out: see
    {!unconverged}. *)

val unconverged : curve list -> int
(** Runs, over every point of every curve, that did not converge (they
    cycled, hit the step or time limit, faulted or crashed) — the runs
    {!max_over} leaves out. *)

val to_table : ?value:[ `Avg | `Max ] -> curve list -> string
(** Aligned text table: first column [n], one column per curve.  Every
    column is right-aligned to the same width: 14 characters, or one more
    than the longest label. *)

val to_gnuplot : ?value:[ `Avg | `Max ] -> curve list -> string
(** Whitespace-separated data with a comment header, one block per curve,
    ready for [plot ... index i]. *)

val write_gnuplot : string -> ?value:[ `Avg | `Max ] -> curve list -> unit
(** [write_gnuplot path curves] writes {!to_gnuplot} output to a file. *)
