(** The Proteus utility-function library (§4).

    A utility function maps a completed monitor interval's metrics to a
    scalar the rate controller climbs. The library ships the paper's
    four functions; applications may register custom ones and switch a
    live sender between them ({!Controller.set_utility}).

    Rates are in Mbps, times in seconds, matching the paper's
    coefficient calibration ([b = 900] targets bottlenecks up to
    1000 Mbps; [d = 1500] with RTT deviation in seconds). *)

type params = {
  exponent : float;  (** [t] in [x^t], 0 < t < 1 (default 0.9). *)
  latency_coeff : float;  (** [b], RTT-gradient penalty (default 900). *)
  loss_coeff : float;  (** [c], loss penalty (default 11.35 = 5 % random
                           loss tolerance). *)
  deviation_coeff : float;  (** [d], RTT-deviation penalty for the
                                scavenger (default 1500). *)
}

val default_params : params

type t
(** A named utility function. *)

val name : t -> string

val eval :
  ?trace:Proteus_obs.Trace.t ->
  ?now:float ->
  ?flow:int ->
  t ->
  Mi.metrics ->
  float
(** Evaluate on (noise-adjusted) MI metrics. The rate term uses the
    MI's achieved send rate. When [trace] (default disabled) is an
    enabled bus, each evaluation publishes a [Utility_sample] event at
    simulated time [now] for flow [flow] (default -1) ([a] = value,
    [b] = MI send rate in Mbps, [note] = the function's name).
    Evaluation consumes no randomness either way. *)

val make : name:string -> (Mi.metrics -> float) -> t
(** Register a custom utility function. *)

val allegro : ?alpha:float -> unit -> t
(** PCC Allegro's loss-based utility (Dong et al., NSDI 2015), the
    first protocol of the PCC family: [T * sigmoid(alpha*(L - 0.05)) -
    x * L] with [T = x * (1 - L)]. Loss-only — no latency awareness —
    so it saturates any buffer; included for lineage and comparison
    (the paper's related-work discussion of PCC). [alpha] defaults to
    100. *)

val vivace : ?params:params -> unit -> t
(** PCC Vivace's utility: [x^t - b*x*(dRTT/dt) - c*x*L]. The raw
    gradient enters the penalty, so draining queues (negative gradient)
    is rewarded — the behaviour Proteus-P removes. *)

val proteus_p : ?params:params -> unit -> t
(** Eq. (1): like Vivace but negative RTT gradient is ignored
    ([max(0, dRTT/dt)]). *)

val proteus_s : ?params:params -> unit -> t
(** Eq. (2): Proteus-P minus [d * x * sigma(RTT)]. *)

val proportional : ?params:params -> weight:float -> unit -> t
(** The "same metrics, greater penalty" strawman of §2.2 (after the
    loss-based proportional-allocation design in the Vivace paper):
    [x^t - (c/weight) * x * L], so a sender with [weight < 1] is more
    loss-averse and should in theory take a proportionally smaller
    share of a loss-based competition. The paper argues — and the
    ablation bench shows — that this fails as a scavenger: having no
    latency signal at all, it still dominates latency-sensitive
    primaries like COPA. *)

val proteus_h : ?params:params -> threshold_mbps:float ref -> unit -> t
(** Eq. (3): piecewise — Proteus-P below the switching threshold,
    Proteus-S at or above it. The threshold is read through the ref on
    every evaluation, so cross-layer policies (e.g.
    {!Proteus_video.Threshold_policy}) can retune it mid-flow. *)
