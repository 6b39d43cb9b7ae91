(** Statistical regression gate over BENCH_matrix rows.

    The matrix sweep reports each (instance-id, metric) cell as a
    mean ± 95% CI across trials. Byte equality is the wrong gate for
    such statistics — an extra trial or a seed-derivation tweak
    legitimately moves every digit — so {!compare_rows} instead flags
    a cell as a regression only when the candidate mean differs from
    the baseline by more than the rel/abs tolerance {e and} the
    difference is statistically significant under Welch's t-test (or
    when both sides are deterministic, in which case any
    beyond-tolerance drift counts). Missing or added cells always
    fail: the matrix shape itself is part of the baseline. *)

type row = {
  id : string;  (** instance id without the trial suffix *)
  metric : string;  (** {!Spec.metric_name} key *)
  mean : float;
  sd : float;  (** across-trial sample standard deviation *)
  ci95 : float;  (** half-width of the 95% confidence interval *)
  trials : int;
}

type config = {
  alpha : float;  (** two-sided significance level (0.05/0.01/0.001) *)
  rel_tol : float;  (** relative practical-significance floor *)
  abs_tol : float;  (** absolute practical-significance floor *)
}

val default : config
(** [alpha = 0.01], [rel_tol = 0.05], [abs_tol = 0.005]. *)

type regression = {
  r_base : row;
  r_cand : row;
  delta : float;  (** candidate mean − baseline mean *)
  t_stat : float option;  (** [None] when both sides are deterministic *)
}

type verdict = {
  regressions : regression list;
  missing : row list;  (** in baseline, absent from candidate *)
  added : row list;  (** in candidate, absent from baseline *)
  compared : int;  (** cells present on both sides *)
}

val passed : verdict -> bool

val compare_rows :
  ?cfg:config -> baseline:row list -> candidate:row list -> unit -> verdict

val t_crit : alpha:float -> df:float -> float
(** Two-sided Student-t critical value; df rounds down to the nearest
    table row (conservative), alpha snaps to 0.05/0.01/0.001. *)

val parse_bench : string -> (row list, string) result
(** Extract result rows (lines carrying an ["id"] key) from a
    BENCH_matrix.json file. *)

val describe_regression : regression -> string
