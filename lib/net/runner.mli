(** Scenario driver: a set of flows crossing a network of links.

    The runner owns the event loop. It polls each sender for pacing
    decisions, pushes packets hop by hop along the flow's route, and
    delivers ACK/loss callbacks both to the sender (congestion control)
    and to the flow's {!Flow_stats} record. Flows may be bulk (infinite
    data), finite-size (reliable: lost bytes are retransmitted and the
    flow completes when every byte is acknowledged), time-bounded, and
    may be added while the simulation is running (workload generators).

    Every flow follows a {!Topology.route}: packets queue (and can be
    tail-dropped, randomly lost, or refused during an outage) at each
    forward hop, and ACKs retrace the reverse route, accumulating
    serialization and propagation delay behind each reverse hop's data
    backlog plus that hop's ACK knobs (noise, reordering, duplication;
    see {!Link.ack_transit}). ACKs are never dropped. A packet's ACK
    time is fixed when it is admitted to its last forward hop, so a
    one-hop route (a {!Topology.dumbbell}) costs one kernel event per
    packet. *)

type t
type flow

val create :
  ?seed:int ->
  ?trace:Proteus_obs.Trace.t ->
  ?kernel:Proteus_eventsim.Sim.kernel ->
  Link.config ->
  t
(** Fresh scenario over a single bottleneck link — shorthand for
    [create_topo (Topology.dumbbell cfg)]. The seed (default 42)
    determines all randomness: link loss, noise, sender probing order,
    workload arrivals. [trace] (default disabled) is the observability
    bus: the runner publishes packet-level events ([Send], [Ack],
    [Dup_ack], [Loss], [Queue_sample]), links publish [Impairment]
    transitions, and senders receive the same bus through their
    {!Sender.env}. Tracing consumes no randomness and never alters
    control flow, so seeded runs are bit-identical with tracing on or
    off.

    Packet-path events (ACK deliveries, loss notifications, hop
    arrivals) ride one {!Proteus_eventsim.Sim.lane} per link, and a
    post-ACK poll runs inline when no other event is due at that
    instant instead of being scheduled. Neither changes what fires or
    when; both show in the kernel counters (see {!snapshot_metrics}).

    [kernel] is accepted for source compatibility and ignored: the
    kernel has one backend, [Sim.Wheel_kernel]. *)

val create_topo :
  ?seed:int ->
  ?trace:Proteus_obs.Trace.t ->
  ?kernel:Proteus_eventsim.Sim.kernel ->
  Topology.t ->
  t
(** Fresh scenario over a {!Topology}. Links are instantiated in id
    order, each with its own stream split from the seed. [kernel] is
    ignored, as in {!create}. *)

val sim : t -> Proteus_eventsim.Sim.t

val link_at : t -> int -> Link.t
(** The instantiated link with the given topology id. *)

val num_links : t -> int

val sync_fluid : t -> unit
(** Advance every link's fluid aggregate (see {!Topology.with_fluid})
    to the current simulated instant, so fluid byte totals and backlogs
    read consistently. Links integrate lazily (on the next packet
    touching them); {!run} calls this at each horizon, so explicit
    calls are only needed when sampling totals mid-run. No-op on
    topologies without fluid classes. *)

val rng : t -> Proteus_stats.Rng.t
(** Derive workload-level random streams from this. *)

val add_flow :
  ?start:float ->
  ?stop:float ->
  ?size_bytes:int ->
  ?on_complete:(now:float -> unit) ->
  ?on_ack_bytes:(now:float -> int -> unit) ->
  ?route:Topology.route ->
  t ->
  label:string ->
  factory:Sender.factory ->
  flow
(** Register a flow. [start] (default 0) is when it begins transmitting,
    [stop] an optional hard stop for new transmissions, [size_bytes] an
    optional finite transfer size. [on_ack_bytes] fires on every
    acknowledged packet (application byte delivery, e.g. a video
    player); [on_complete] fires when a finite flow has every byte
    acknowledged. [route] defaults to {!Topology.chain_route} on a chain
    (and so on a dumbbell) and is required on a topology built by
    {!Topology.make}; raises [Invalid_argument] when it is missing
    there, or when the route references a link id outside the runner's
    topology. *)

val stats : flow -> Flow_stats.t
val label : flow -> string
val sender : flow -> Sender.packed
val is_complete : flow -> bool
val completion_time : flow -> float option

val pause : t -> flow -> unit
(** Stop transmitting (e.g. full playback buffer); ACKs still drain. *)

val resume : t -> flow -> unit

val attach_audit : ?trace:int -> t -> Audit.t
(** Install a runtime invariant {!Audit} fed every subsequent
    packet-level event (sends, ACKs, duplicate ACKs, losses, backlog
    samples — plus per-hop enter/exit/drop events, checked for per-hop
    conservation at quiesce; a packet exits its last forward hop when
    its ACK fires). Must be
    attached before any packet is in flight — the auditor treats
    deliveries of packets it never saw sent as conservation violations.
    Links carrying fluid classes are registered for fluid byte
    conservation, checked by [Audit.assert_quiesced].
    Attaching again replaces the previous auditor. [trace] bounds the
    ring-buffer trace embedded in {!Audit.Violation} reports. The
    auditor shares the runner's observability bus, so violations also
    surface as [Audit_violation] trace events. *)

val audit : t -> Audit.t option
(** The currently attached auditor, if any. *)

val snapshot_metrics : t -> Proteus_obs.Metrics.t -> unit
(** Populate a metrics registry with an end-of-run snapshot: event-kernel
    counters ([sim.*]; [sim.events-scheduled] counts lane pushes but not
    the post-ACK polls run inline, and the [sim.wheel-*] counters read
    the timing wheel that carries every flow's polls), trace-bus
    counters ([trace.*]) when tracing is enabled, the current backlog
    of every link ([link.<id>.backlog-bytes]; links 0 and 1 on a
    dumbbell), and per-flow packet counters, goodput
    gauges and an RTT histogram ([flow.<label>.*]). Counters are bumped
    by the totals at call time, so call once per registry (an
    end-of-run snapshot, not an incremental feed). *)

val run : t -> until:float -> unit
(** Advance the simulation to the given time. May be called repeatedly
    with increasing horizons. *)
