(** Measurement helpers for the benchmark executable: a monotonic clock,
    median-of-k over interleaved passes, the percentile rule and seed
    derivation. Kept free of simulator types so they can be tested on
    their own. *)

val now_ns : unit -> int
(** Monotonic clock reading in nanoseconds. Allocation free. *)

val seconds_since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)

(** Per-unit host times, one entry per timed rep in the order recorded.
    A pass records at most one rep per unit, so a unit's reps are spread
    across the whole run rather than bunched together. *)
module Reps : sig
  type t

  val create : int -> t
  (** [create n] holds reps for units [0 .. n-1]. *)

  val add : t -> int -> float -> unit
  val units : t -> int

  val times : t -> int -> float array
  (** Reps of one unit, in recording order. *)

  val best : t -> int -> float
  (** Fastest rep of a unit. Raises [Invalid_argument] when it has none. *)

  val timed : t -> int list
  (** Units with at least one rep, in unit order. A unit without reps
      (it never completed) has no time to report. *)

  val median_all : t -> float array
  (** Median rep of every unit in {!timed}, in unit order. *)

  val sum_median : t -> float

  val spread : t -> float
  (** Median over units with reps of [(median_k - best_k) / best_k]: how
      far a typical rep sat above the unit's fastest one. *)
end

(** Host-speed normalisation. The host's speed swings by up to half for
    stretches of several seconds, and the simulator slows with it. Two
    fixed allocation-heavy reference kernels slow by about as much, one a
    little less and one a little more, so each pass times both between
    its units and scales the pass's times by [nominal / r], where [r] is
    the geometric mean of the two kernels' median times: host seconds at
    the speed where [r] is [nominal]. *)
module Pass : sig
  type t

  val create : unit -> t

  val add : t -> Reps.t -> int -> float -> unit
  (** [add p reps u x] stages a raw time [x] for unit [u] of [reps]. *)

  val reference : t -> unit
  (** Time one run of each reference kernel into the pass. *)

  val add_reference : t -> float * float -> unit
  (** Record the two kernels' times measured elsewhere. *)

  val commit : t -> nominal:float -> float
  (** Add every staged time, divided by [f = r / nominal], to its
      {!Reps.t} in staging order; return [f] (the host factor: above 1
      on a slow host) and empty the pass. Raises [Invalid_argument] when
      no reference time was recorded. *)
end

val passes : continue:(int -> bool) -> (int -> unit) -> int
(** [passes ~continue f] calls [f 0], [f 1], ... while
    [continue passes_done] holds, and returns the number of passes run.
    Each [f] call is one pass over every unit (A B C, A B C, ...). *)

val budget : min:int -> max:int -> seconds:float -> int -> bool
(** A [continue] predicate for {!passes}: always run [min] passes, never
    more than [max], and in between keep going while fewer than
    [seconds] have elapsed since the predicate was built (partial
    application starts the clock). *)

val median : float array -> float
(** Median of a non-empty array (mean of the middle pair when even). *)

val min_beyond : int
(** A percentile needs at least this many samples beyond it (10). *)

val percentile : p:float -> float array -> (float * int) option
(** Nearest-rank [p]-th percentile ([0 < p < 100]) and the number of
    samples strictly beyond its rank, or [None] when fewer than
    {!min_beyond} samples lie beyond it: such a percentile is reported
    as missing, never as a number. *)

val unit_seed : int -> string -> int
(** [unit_seed workload_seed id]: the simulation seed of the unit named
    [id] under a workload seed. A positive int below [10^9]; the same
    pair always gives the same seed. *)

val mix_seed : int -> int -> int
(** [mix_seed workload_seed base] mixes a workload seed into an
    existing per-instance seed (e.g. a scenario's id-derived seed). *)
