(** Fluid-flow aggregation tier: background traffic as rate envelopes.

    Packet-level simulation of every background flow is what keeps the
    64-flow shapes at ~100 sim-s/wall-s; this tier models background
    {e classes} (web transfers, video sessions, bulk swarms — thousands
    to millions of flows each) as piecewise-constant offered-rate
    envelopes attached to a {!Link}. The aggregate maintains a single
    fluid backlog per link, integrated exactly over the
    piecewise-constant segments, so the cost of a fluid class is a few
    arithmetic operations per link sync — independent of how many flows
    it stands for.

    {b Coupling to the packet tier.} At every link sync the aggregate
    is advanced to the current instant and the link derives:
    {ul
    {- an {e effective packet capacity} — the raw capacity minus
       {!served_rate}, the rate the fluid tier is consuming (capped at
       95% of capacity, so foreground flows always retain a service
       floor);}
    {- a reduced buffer share — the fluid backlog occupies the shared
       buffer, shrinking the tail-drop headroom packets see;}
    {- a congestion-loss probability {!loss_prob} applied to foreground
       packets while the fluid backlog is pinned at its buffer share
       and shedding (both tiers overflow the same queue).}}

    {b Responsiveness.} Each class carries a knob [r] in [0,1]: when
    the total offered rate exceeds the fluid capacity share, a class
    backs off TCP-like by the [r]-weighted part of its overshoot
    ([r = 1] scales to its proportional share; [r = 0] keeps pushing
    and forces shedding). Backed-off bytes never enter the link and are
    invisible to conservation.

    {b Conservation.} At any sync point,
    [bytes in = bytes out + bytes shed + backlog] holds to
    floating-point rounding (terms from {!totals}); the {!Audit}
    checks it per link at quiesce. *)

type cls
(** A background traffic class specification. *)

val cls :
  ?flows:int ->
  ?responsiveness:float ->
  label:string ->
  (float * float) list ->
  cls
(** [cls ~label env] describes a class offering the piecewise-constant
    envelope [env]: [(from_time_s, rate_mbps)] pairs, where each rate
    (the class {e aggregate} offered rate, not per-flow) applies from
    its time until the next segment. Segments need not be pre-sorted; a
    first segment starting after [t = 0] gets an implicit leading
    silence. [flows] (default 1) is the flow population the class
    stands for (reporting / scale headlines only). [responsiveness]
    (default 0) is the congestion backoff knob. Raises
    [Invalid_argument] on an empty envelope, negative or non-finite
    times/rates, [flows <= 0], or responsiveness outside [0,1]. *)

val cls_flows : cls -> int

type t
(** Mutable per-link aggregate state (all classes + one fluid backlog),
    instantiated by the {!Runner} from the {!Topology}'s class list. *)

val create : ?buffer_share:float -> cls list -> t
(** Instantiate an aggregate. [buffer_share] (default 0.5) bounds the
    fluid backlog to that fraction of the link buffer — the rest stays
    tail-drop headroom for foreground packets. Raises
    [Invalid_argument] on an empty class list or a share outside
    (0,1]. *)

val advance : t -> until:float -> capacity:float -> buffer:float -> unit
(** Integrate the fluid state forward to [until] (no-op when not ahead
    of the last sync) under the link's current [capacity] and [buffer]
    (bytes/s, bytes). Exact for piecewise-constant envelopes: the
    integrator splits at envelope breakpoints and backlog boundary
    crossings. Called by the link on every sync and before applying
    each scheduled impairment, so each interval sees one consistent
    capacity. *)

val served_rate : t -> float
(** Rate (bytes/s) the fluid tier is consuming as of the last
    {!advance} — what the link subtracts from the packet service
    rate. At most 95% of the capacity passed to {!advance}. *)

val loss_prob : t -> float
(** Probability that a foreground packet offered now is lost to fluid
    congestion: positive only while the fluid backlog is pinned at its
    buffer share with offered rate still exceeding service (both tiers
    overflow the same queue), in which case it is the fluid's own shed
    fraction. *)

val backlog : t -> float
(** Fluid bytes queued as of the last {!advance} (within
    [0, buffer_share * buffer]). *)

val totals : t -> float * float * float * float
(** [(bytes_in, bytes_out, bytes_shed, backlog)] — lifetime fluid byte
    accounting, the terms of the conservation law. *)

val flows : t -> int
(** Total flow population across classes (scale reporting). *)

val class_stats : t -> int -> string * int * float * float
(** [(label, flows, bytes_in, bytes_shed)] for class [i] (creation
    order). *)
