(** Descriptive statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Population variance (divides by [n]). 0 for singleton samples. *)

val stddev : float array -> float
(** Population standard deviation, [sqrt (variance x)]. *)

val mean_prefix : float array -> len:int -> float

val variance_prefix : float array -> len:int -> float
(** {!mean} and {!variance} of the first [len] elements, bit-identical
    to the same function on [Array.sub xs 0 len] but without the copy.
    Raise [Invalid_argument] unless [0 < len <= Array.length xs]. *)

val moments_prefix_into : float array -> len:int -> out:float array -> unit
(** {!mean} and {!stddev} of the first [len] elements, bit-identical to
    them on [Array.sub xs 0 len], written to [out.(0)] and [out.(1)].
    Allocation free, so no float crosses the call boxed. Raises
    [Invalid_argument] unless [0 < len <= Array.length xs]. *)

val square : float -> float
(** [x ** 2.0], bit for bit, computed without a libm call on about
    nine inputs in ten: the kernel {!variance} sums. *)

val fmax : float -> float -> float
val fmin : float -> float -> float
(** [Float.max] and [Float.min] on every input, signed zeros and NaN
    included, by comparisons alone: the stdlib's forms call the C
    [caml_signbit] whenever their first comparison fails. Modules that
    run them per packet keep their own inlined copies, since the dev
    profile's [-opaque] boxes floats passed across modules; these are
    the ones the property tests hold to the stdlib. *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [\[0,100\]], linear interpolation
    between order statistics. Does not mutate [xs]. It selects the two
    order statistics on one copy of [xs] (expected O(n), no sort) in
    the order of [compare]: NaN below everything, [-0.0] equal to
    [0.0]. Which of two [compare]-equal samples with different bits
    ([-0.0]/[0.0], NaN payloads) is read is unspecified. Raises
    [Invalid_argument] on an empty array or a [p] outside [\[0,100\]]
    (NaN included). *)

val median : float array -> float
(** [percentile xs ~p:50.]. *)

val min_max : float array -> float * float
(** Smallest and largest sample. *)

val jain_index : float array -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)]; 1.0 when all
    allocations are equal, down to [1/n] when one flow takes all. *)

val cdf_points : float array -> (float * float) list
(** Empirical CDF as a sorted [(value, fraction <= value)] list. *)

val normalize : float array -> float array
(** Divide all samples by the maximum; all-zero input is returned as-is. *)
