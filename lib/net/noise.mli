(** Non-congestion latency noise models for the acknowledgement path.

    The paper's noise-tolerance mechanisms (§5) target "rapidly changing
    wireless networks" where ACK reception is bursty "possibly due to
    irregular MAC scheduling". [Wifi] models exactly that: small
    Gaussian jitter, occasional heavy-tailed delay spikes, and ACK
    compression windows during which ACK delivery is gated and then
    released in a burst. *)

type spec =
  | None_  (** Clean channel. *)
  | Gaussian of { sigma_ms : float }
      (** Truncated-Gaussian per-ACK jitter. *)
  | Lte of {
      frame_ms : float;  (** Scheduling frame period. *)
      jitter_ms : float;  (** Within-frame Gaussian jitter. *)
      outage_prob : float;  (** Per-frame probability of a deep fade. *)
      outage_max_ms : float;  (** Maximum fade duration. *)
    }
      (** Cellular-style noise (§7.2's untested high-fluctuation
          environment): ACKs are quantized to scheduling-frame
          boundaries, and occasional deep fades hold the channel for
          tens of milliseconds. *)
  | Wifi of {
      jitter_ms : float;  (** Gaussian jitter std-dev. *)
      spike_prob : float;  (** Per-ACK probability of a delay spike. *)
      spike_scale_ms : float;  (** Pareto scale of spike magnitude. *)
      gate_prob : float;  (** Per-ACK probability of opening an
                              ACK-compression gate. *)
      gate_max_ms : float;  (** Maximum gate (compression burst) length. *)
    }

val default_wifi : spec
(** Parameters producing ~1-5 ms typical RTT deviation with occasional
    tens-of-ms spikes, matching the paper's description of its WiFi
    testbed ("typical RTT deviation is up to 5 ms but RTT occasionally
    spikes tens of milliseconds higher"). *)

val default_lte : spec
(** 1 ms scheduling frames with occasional deep fades up to 40 ms. *)

type t

val create : spec -> rng:Proteus_stats.Rng.t -> t

val ack_delivery_time : t -> nominal:float -> float
(** [ack_delivery_time t ~nominal] maps the noise-free ACK arrival
    time [nominal] to the actual delivery time ([>= nominal]). Calls
    must be made in nondecreasing [nominal] order (the simulator's ACK
    stream): the gate state assumes it, so a decreasing [nominal]
    raises [Invalid_argument] instead of silently producing
    out-of-order ACK times. {!Link} maintains the precondition even
    under mid-run RTT reductions by clamping its nominal ACK times to
    be nondecreasing (FIFO ACK path). *)
