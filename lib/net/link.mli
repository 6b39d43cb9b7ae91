(** One directed link: a hop of a {!Topology}.

    A single FIFO tail-drop queue served at a fixed rate, modelled as a
    virtual queue: the backlog at time [t] is [(free_at - t) * capacity]
    bytes, where [free_at] is when the server would go idle. A packet
    admitted at [t] ({!forward}) departs at [max t free_at + size/capacity]
    and reaches the far end one propagation delay later. Packets are
    dropped on admission when the backlog would exceed the buffer (tail
    drop) or by random loss. ACKs cross a link through {!ack_transit}:
    they wait behind its data backlog, pay [Units.ack_bytes] of
    serialization and one propagation delay, and are never dropped.

    {b Dynamic impairments.} A link may carry an {!impairment} schedule:
    piecewise bandwidth/RTT/buffer/loss changes and hard outage windows,
    applied lazily as simulated time passes. Rate changes preserve the
    queued byte count (the unserved backlog is re-served at the new
    rate). An outage takes the link down for a window: admissions during
    the window are refused, and packets already queued either wait for
    the server to come back ([flush = false], the queue drains afterward)
    or are discarded ([flush = true], the queue is flushed). Loss can be
    iid or bursty (two-state Gilbert–Elliott chain). All randomness
    flows through the seeded RNG supplied at {!create}, so runs remain
    deterministic.

    {b ACK knobs.} The [noise], [reorder_*] and [dup_prob] fields act on
    the ACKs crossing the link: a dumbbell's reverse link (which mirrors
    the forward configuration) carries them for its flows, and any
    reverse hop of a longer route applies its own. Both directions are
    FIFO: forward arrivals and nominal ACK times are clamped to be
    nondecreasing, so an RTT reduction mid-run cannot deliver a later
    packet (or its ACK) before an earlier one, and cannot violate the
    {!Noise.ack_delivery_time} precondition. The reordering knob adds
    post-noise delay to randomly chosen ACKs, which is the one
    sanctioned source of out-of-order ACK delivery. *)

type loss_model =
  | Iid of float  (** Independent per-packet loss probability. *)
  | Gilbert_elliott of {
      p_good_bad : float;  (** Per-packet transition probability G→B. *)
      p_bad_good : float;  (** Per-packet transition probability B→G. *)
      loss_good : float;  (** Loss probability in the good state. *)
      loss_bad : float;  (** Loss probability in the bad (burst) state. *)
    }
      (** Two-state bursty-loss chain. Mean burst length is
          [1 / p_bad_good] packets; long-run average loss is
          {!average_loss}. *)

type impairment =
  | Set_bandwidth of float  (** New capacity in Mbps. *)
  | Set_rtt of float  (** New base (propagation) RTT in ms. *)
  | Set_buffer of int  (** New queue capacity in bytes. *)
  | Set_loss of loss_model
      (** Swap the loss model (resets the Gilbert–Elliott state). *)
  | Down of { duration : float; flush : bool }
      (** Link down for [duration] seconds from the entry's time. New
          admissions are refused for the window; the queue is discarded
          when [flush], otherwise it drains once the server returns.
          Windows must not overlap. *)

type config = {
  bandwidth_mbps : float;
  rtt_ms : float;  (** Base (propagation) round-trip time. *)
  buffer_bytes : int;  (** Bottleneck queue capacity. *)
  loss_rate : float;  (** iid random-loss probability, 0 by default. *)
  loss : loss_model option;  (** Supersedes [loss_rate] when set. *)
  noise : Noise.spec;  (** Delay noise on ACKs crossing this link. *)
  schedule : (float * impairment) list;
      (** (absolute time, impairment) pairs; need not be pre-sorted. *)
  reorder_prob : float;
      (** Per-ACK probability of extra delay on this link. *)
  reorder_extra_ms : float;  (** Max extra delay of a reordered ACK. *)
  dup_prob : float;  (** Per-ACK probability of a duplicate on this link. *)
}

val config :
  ?loss_rate:float ->
  ?loss:loss_model ->
  ?noise:Noise.spec ->
  ?schedule:(float * impairment) list ->
  ?reorder_prob:float ->
  ?reorder_extra_ms:float ->
  ?dup_prob:float ->
  bandwidth_mbps:float ->
  rtt_ms:float ->
  buffer_bytes:int ->
  unit ->
  config
(** Validated constructor: raises [Invalid_argument] on non-positive
    [bandwidth_mbps]/[rtt_ms]/[buffer_bytes], probabilities outside
    [0,1] (including NaN), negative or non-finite noise delays (a
    Gaussian [sigma_ms], any wifi/LTE delay; an LTE [frame_ms] must be
    positive), negative or non-finite schedule times,
    invalid scheduled values, or overlapping outage windows.
    [reorder_extra_ms] defaults to 5 ms. *)

val average_loss : loss_model -> float
(** Long-run average loss probability of the model (for calibrating a
    bursty model against an iid baseline). *)

type t

val create :
  ?trace:Proteus_obs.Trace.t ->
  id:int ->
  config ->
  rng:Proteus_stats.Rng.t ->
  t
(** Raises [Invalid_argument] on an invalid configuration (see
    {!config}) — this is the choke point for records built without the
    smart constructor. [trace] (default disabled) receives an
    [Impairment] event each time a schedule entry is applied and when
    an outage window ends (note ["up"]); its [seq] is [id], the link's
    index in its topology (see {!Proteus_obs.Trace.event}). *)

val capacity_bytes_per_sec : t -> float
(** Current service rate (reflects schedule entries applied so far). *)

val base_rtt : t -> float
(** Current base RTT (reflects schedule entries applied so far). *)

val one_way_delay : t -> now:float -> float
(** One-way propagation delay at [now] ([base_rtt / 2] after applying
    schedule entries due by [now]). *)

val is_down : t -> now:float -> bool
(** Whether [now] falls inside an outage window. *)

val backlog_bytes : t -> now:float -> float
(** Bytes currently queued (including the packet in service). *)

val queue_delay : t -> now:float -> float
(** Time a packet admitted now would wait before starting service. *)

val forward : t -> now:float -> size:int -> out:float array -> bool
(** Offer a packet to the link at time [now] (nondecreasing across
    calls). [true]: admitted, and [out.(0)] is the time it reaches the
    far end. [false]: dropped (outage, random loss, fluid shedding, tail
    drop or flush); [out] is untouched. Allocates nothing. *)

val ack_transit : t -> now:float -> ack:float array -> unit
(** Carry one ACK across the link. On entry [ack.(0)] is the time the
    ACK reaches the link ([>= now], possibly in the future) and
    [ack.(1)] the time of a duplicate riding along, or NaN; on return
    both hold the corresponding times at the far end. The ACK pays the
    link's queueing delay as of [now] (its data backlog is assumed to
    persist until the ACK arrives), [Units.ack_bytes] of serialization
    and one propagation delay, then the link's ACK knobs apply in
    order: the FIFO clamp, noise, the reordering delay, and — when no
    duplicate rides along yet — the duplication draw (a duplicate
    trails the ACK by one [Units.mtu] serialization at the link's rate,
    the spacing a duplicated data packet gives it; an upstream duplicate
    keeps its lag). ACKs are never dropped and never queue-build. [now]
    must be simulated-now — the impairment schedule is synced to it,
    not to the ACK's time.

    The clamp holds an ACK behind the last one computed on this link
    only if it reaches the link no earlier than that one, or if the
    link is noisy: ACK streams with different upstream paths that share
    a reverse link are not serialized against each other. *)

(** {2 Fluid background tier}

    A link may carry one {!Aggregate} of fluid background classes. The
    aggregate is advanced lazily at every link sync (and up to each
    impairment instant before it applies); packet-level flows then see
    it as contention: their service rate is the raw capacity minus the
    fluid's served rate (with the queued packet backlog re-served at
    each rate change, exactly like [Set_bandwidth]), the fluid backlog
    occupies the shared buffer and shrinks the tail-drop headroom, and
    while the fluid is shedding, foreground packets are additionally
    lost with the fluid's shed fraction. Links without an aggregate are
    bit-identical to the historical single-tier link: same arithmetic,
    same RNG draws. *)

val attach_fluid : t -> Aggregate.t -> unit
(** Attach the fluid background aggregate. Must happen before any
    traffic crosses the link (the aggregate integrates from time 0);
    raises [Invalid_argument] if one is already attached. *)

val fluid : t -> Aggregate.t option
(** The attached aggregate, if any. *)

val sync_fluid : t -> now:float -> unit
(** Advance the impairment schedule and the fluid aggregate to [now]
    without offering a packet — used to bring the fluid byte accounting
    up to the horizon before reading {!Aggregate.totals} at the end of
    a run. *)
