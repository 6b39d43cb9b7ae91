(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws through an [Rng.t]
    so that a scenario seed fully determines a run. Child generators
    derived with {!split} are independent streams, letting components
    (link loss, noise model, workload generator, ...) evolve without
    perturbing each other's draws.

    A stream is cheap until it is drawn from: its generator state is
    built on its first draw, and never by {!split} or {!split_at},
    which read only the parent's seed and split counter. A stream that
    is derived but never drawn from (a loss-free link's, a sender's
    that never randomises) costs one small record. The draws are the
    same either way. *)

type t
(** A random stream. *)

val create : seed:int -> t
(** [create ~seed] makes a stream whose draws are a pure function of
    [seed]: those of [Random.State.make [| seed |]]. The state is
    built on the first draw. *)

val split : t -> t
(** [split t] derives an independent child stream. The child's sequence
    depends only on the parent's seed and the number of prior splits.
    It builds neither the parent's state nor the child's. *)

val split_at : t -> key:int -> t
(** [split_at t ~key] derives an independent child stream identified by
    [key]. Unlike {!split} the result depends only on the parent's seed
    and [key] — not on how many other children were derived — so
    per-task streams stay stable when tasks are set up in a different
    order (e.g. parallel fan-out). Like {!split}, it builds no state. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)]. [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw from [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponential draw with the given mean (e.g. Poisson interarrivals). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal draw (Box–Muller). *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto draw with minimum [scale]; heavy-tailed spike magnitudes. *)
