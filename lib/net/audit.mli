(** Runtime invariant auditor for the network substrate.

    An auditor is fed every packet-level event by the {!Runner} (see
    [Runner.attach_audit]) and cross-checks the simulator's own
    conservation laws while an experiment runs:

    - {b conservation} — every transmitted packet is eventually
      delivered (ACKed) or dropped {e exactly once}: a second delivery,
      a delivery of a never-sent sequence number, or packets left in
      flight after {!assert_quiesced} all raise;
    - {b non-negative backlog} — the link's queued byte count stays
      finite and ≥ 0 at every observed event;
    - {b monotone ACK delivery} — per flow, ACK/loss events arrive in
      nondecreasing simulated time (and the global clock never runs
      backwards). Every event time must be finite: a NaN or infinite
      time raises (a NaN kept as the clock would make every later
      comparison false and switch the check off);
    - {b in-flight accounting} — per flow,
      [sent = acked + lost + outstanding] with all terms ≥ 0, and the
      outstanding {e set} always matches the counters.

    On violation the auditor raises {!Violation} whose message embeds a
    bounded ring-buffer trace of the last [trace] events (oldest
    first), enough to replay the failure deterministically from the
    scenario seed.

    {b Cost.} A packet costs the auditor about what its counters cost.
    Each flow's outstanding set is an int table of its own (open
    addressing, multiplicative hash, linear probing, backward-shift
    deletion), and the clocks and the trace ring are flat arrays, so an
    event makes no allocation and no C call. Memory grows only when a
    flow or link is registered and when a flow's in-flight window
    doubles past its table. The event hooks are inlined into the
    caller (in builds without [-opaque]), so a caller's unboxed [now]
    is not boxed; the failure paths run out of line.

    {b Backlog reads.} The {!Runner} reads [Link.backlog_bytes] for
    {!observe_backlog} after every send, ACK and loss. On a link
    carrying fluid background that read syncs the link, and a sync
    moves where the fluid integration splits, so the reads can change
    the run. They therefore stay at exactly these instants, and
    attaching an auditor may change a fluid run (DESIGN §5a). *)

exception Violation of string

type t

val create : ?trace:int -> ?obs:Proteus_obs.Trace.t -> unit -> t
(** Fresh auditor keeping the last [trace] (default 64) events for the
    violation report. [obs] (default disabled) is the observability bus:
    each violation is published there as an [Audit_violation] event
    (note = the failure message) before {!Violation} is raised. *)

val register_flow : t -> label:string -> int
(** Register a flow; the returned id is passed to the event hooks. *)

val on_sent : t -> flow:int -> seq:int -> size:int -> now:float -> unit
val on_ack : t -> flow:int -> seq:int -> size:int -> now:float -> unit

val on_dup_ack : t -> flow:int -> seq:int -> now:float -> unit
(** A duplicate ACK: must refer to a packet already delivered once. *)

val on_loss : t -> flow:int -> seq:int -> size:int -> now:float -> unit

val observe_backlog : t -> backlog:float -> now:float -> unit
(** Check a sampled link backlog (finite, non-negative). *)

(** {2 Per-hop occupancy}

    The {!Runner} feeds one [on_hop_enter] per packet admitted to a hop
    queue, one [on_hop_exit] when it reaches the far end (for the last
    forward hop: when its ACK fires), and one
    [on_hop_drop] when the hop refuses it (outage, random loss, tail
    drop). The auditor checks the clock stays monotone, that no hop
    reports more exits than entries, and — at {!assert_quiesced} — that
    every entered packet exited ({e per-hop} conservation, layered
    under the flow-level law). Hop events are counted separately in
    {!hop_events_checked} and do not contribute to
    {!events_checked}. *)

val on_hop_enter : t -> link:int -> now:float -> unit
val on_hop_exit : t -> link:int -> now:float -> unit
val on_hop_drop : t -> link:int -> now:float -> unit

val hop_counters : t -> link:int -> int * int * int
(** [(entered, exited, dropped)] for the link ([(0,0,0)] if it never
    saw a hop event). *)

val hop_events_checked : t -> int
(** Total per-hop events fed through the auditor (diagnostic). *)

(** {2 Fluid byte conservation (aggregation tier)}

    Links carrying fluid background classes (see [Aggregate]) register
    a probe reading the aggregate's lifetime byte totals
    [(bytes_in, bytes_out, bytes_shed, backlog)]. The probes are
    closure-based so the auditor stays independent of the fluid tier's
    types. {!assert_quiesced} raises {!Violation} if any registered
    link's accounting has a negative or non-finite term, or violates
    [bytes_in = bytes_out + bytes_shed + backlog] beyond a relative
    [1e-6] tolerance. *)

val register_fluid :
  t -> link:int -> totals:(unit -> float * float * float * float) -> unit

val fluid_links_checked : t -> int
(** Number of fluid-carrying links registered for conservation checks. *)

val outstanding : t -> int
(** Packets currently in flight across all registered flows. *)

val events_checked : t -> int
(** Total events fed through the auditor (diagnostic). *)

val assert_quiesced : t -> unit
(** Call once the simulation has drained (no pending events): raises
    {!Violation} if any packet was neither delivered nor dropped, or a
    registered fluid link's byte accounting fails (see above). *)

val recent_events : t -> string list
(** Formatted trace of the retained events, oldest first. *)
