(** TCP BBR (v1, simplified): model-based pacing from a windowed-max
    bottleneck-bandwidth estimate and a windowed-min RTprop estimate,
    with the STARTUP / DRAIN / PROBE_BW / PROBE_RTT state machine and
    the 8-phase pacing-gain cycle.

    Also provides BBR-S, the paper's §7.1 illustration of extending the
    RTT-deviation idea to other protocols: whenever the smoothed RTT
    deviation exceeds a threshold (20 ms), the sender is forced into a
    minimum-inflight probe for at least 40 ms, yielding to competitors. *)

type params = {
  scavenger_dev_threshold_ms : float option;
      (** [None] for standard BBR; [Some 20.0] for BBR-S. *)
}

val default : params
val scavenger : params

type t

val create : ?params:params -> Proteus_net.Sender.env -> t
val factory : ?params:params -> unit -> Proteus_net.Sender.factory

val scavenger_factory : unit -> Proteus_net.Sender.factory
(** BBR-S. *)

include Proteus_net.Sender.S with type t := t

val btlbw_estimate : t -> float
(** Bottleneck bandwidth estimate in bytes/sec, for tests. *)

val rtprop_estimate : t -> float
(** Min-RTT estimate in seconds, for tests. *)

val is_probing_rtt : t -> bool
(** Whether the sender is currently in PROBE_RTT (or a BBR-S yield
    hold), for tests. *)

val state_fields : t -> (string * float) list
(** Internal state at full precision, for the golden tests: bytes
    delivered, the pacing clock, the smoothed RTT and the BBR-S RTT
    deviation tracker's mean and deviation (NaN for BBR). *)
