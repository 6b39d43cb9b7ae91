(** Exponentially weighted moving averages.

    {!Mean_dev} mirrors the Linux-kernel smoothed-RTT / RTT-variance
    estimator that the paper reuses for its trending-tolerance gates
    (§5, "similar to how smoothed RTT and RTT deviation are updated in
    the Linux kernel"). *)

type t
(** A plain EWMA. *)

val create : alpha:float -> t
(** [create ~alpha] with weight [alpha] in (0,1] given to new samples. *)

val update : t -> float -> unit
(** Fold a sample in. The first sample initializes the average. *)

val value : t -> float option
(** Current average, [None] before the first sample. *)

val value_exn : t -> float
(** Current average; raises [Invalid_argument] before the first sample. *)

module Mean_dev : sig
  type t
  (** Tracks an EWMA of samples and an EWMA of the absolute deviation of
      each sample from the running average (srtt/rttvar style). *)

  val create : ?alpha:float -> ?beta:float -> unit -> t
  (** Defaults [alpha = 1/8] (mean weight) and [beta = 1/4] (deviation
      weight), the classic TCP constants. *)

  val update : t -> float -> unit

  val update_from : t -> float array -> int -> unit
  (** [update_from t a i] is [update t a.(i)], for per-packet callers:
      a float argument would be boxed at a call across the module
      boundary. *)

  val mean_nan : t -> float
  (** The moving average, [Float.nan] before the first sample.
      Allocation-free. *)

  val deviation_nan : t -> float
  (** The moving absolute deviation, [Float.nan] before the second
      sample. *)

  val deviation_into : t -> float array -> int -> unit
  (** [deviation_into t a i] writes {!deviation_nan} into [a.(i)]. *)

  val n_samples : t -> int
  (** Number of samples folded in so far. *)
end
