(** Least-squares linear regression, as used for RTT-gradient estimation
    (PCC Vivace / Proteus) and for the per-MI regression-error noise
    tolerance of Proteus (§5 of the paper). *)

type fit = {
  slope : float;  (** dy/dx of the least-squares line. *)
  intercept : float;  (** y value of the line at x = 0. *)
  residual_rms : float;
      (** Root-mean-square of the residuals [y_i - (a + b x_i)]; the
          paper's regression error before MI-duration normalization. *)
}

val fit : x:float array -> y:float array -> fit
(** Least-squares fit of [y] against [x]. Arrays must have equal, nonzero
    length. A fit over fewer than 2 distinct [x] values has slope 0. *)

val slope_of_indexed : float array -> len:int -> float
(** [slope_of_indexed ys ~len] fits the first [len] elements of [ys]
    against indices [1..len] and returns the slope, bit-identical to
    {!fit}'s; the paper's trending-gradient computation over stored MI
    mean RTTs. Allocation free. Raises [Invalid_argument] unless
    [0 < len <= Array.length ys]. *)

val fit_prefix : x:float array -> y:float array -> len:int -> fit
(** {!fit} over the first [len] elements of [x] and [y], bit-identical
    to it on the [Array.sub] copies but without them. Raises
    [Invalid_argument] unless [0 < len] and both arrays hold at least
    [len] elements. *)

val fit_prefix_into :
  x:float array -> y:float array -> len:int -> out:float array -> unit
(** {!fit_prefix} written to [out]: slope, intercept and residual RMS
    at [out.(0)], [out.(1)], [out.(2)]. Allocation free, so no float
    crosses the call boxed. *)
