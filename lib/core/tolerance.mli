(** Per-MI and MI-history noise tolerance (§5).

    Two cooperating mechanisms adjust each completed MI's latency
    metrics before utility evaluation:

    - {e Regression-error tolerance}: when the RTT gradient's magnitude
      is below the regression's own residual error, the gradient is
      statistically indistinguishable from noise, and both the gradient
      and the RTT deviation are candidates for zeroing.

    - {e Trending tolerance}: zeroing is vetoed when the trend over the
      last [k] MIs (trending gradient = regression slope over stored
      mean RTTs; trending deviation = std-dev of stored deviations) is
      several EWMA-deviations away from its own moving average — a slow
      persistent inflation is then statistically unlikely to be noise
      and must not be ignored ([G1 = 2], [G2 = 4] for ~95 % confidence
      under Gaussian noise). *)

type config = {
  regression_tolerance : bool;  (** Per-MI regression-error gate. *)
  trending_tolerance : bool;  (** MI-history veto mechanism. *)
  history : int;  (** [k], number of stored MIs (default 6). *)
  g1 : float;  (** Trending-gradient gate width (default 2). *)
  g2 : float;  (** Trending-deviation gate width (default 4). *)
  fixed_gradient_threshold : float option;
      (** Vivace's fixed tolerance: zero any gradient smaller in
          magnitude than this, unconditionally. [None] for Proteus. *)
}

val proteus_default : config
val vivace_default : config
(** No adaptive mechanisms; fixed gradient threshold 0.01. *)

val disabled : config
(** Everything off (ablation baseline). *)

type t

val create : config -> t

val adjust : t -> Mi.metrics -> unit
(** Fold one completed MI in and zero its gradient and deviation in
    place where the mechanisms deem them noise. Call it once per MI, in
    completion order: each call advances the MI history. *)

val moments_fields : t -> (string * float) list
(** The newest statistics at full precision, for the golden tests: the
    last MI's RTT mean and deviation as folded into the history, and
    the trending deviation's mean and standard deviation over the
    history. NaN until the history holds one MI (the first pair) or two
    (the second); the history only advances under [trending_tolerance]. *)
