(** Typed, ring-buffered trace bus for the simulator.

    Subsystems (the scenario runner, the link, the rate controller, the
    invariant auditor) publish structured events — packet sends/ACKs/
    losses, monitor-interval boundaries, utility and rate decisions,
    link impairment transitions, queue-depth samples, audit violations —
    into a bounded ring. The newest [capacity] events are retained;
    older ones are overwritten (the {!dropped} counter records how
    many).

    {b Cost discipline.} Emission into an enabled bus stores into
    preallocated structure-of-arrays slots and allocates nothing in
    steady state. A disabled bus costs one field load and branch per
    instrumentation site: all sites are written

    {[ if Trace.enabled tr then Trace.emit tr ... ]}

    so argument computation (including float boxing) never happens when
    tracing is off, and no RNG is ever consumed — seeded runs are
    bit-identical with tracing on or off. *)

type kind =
  | Send
      (** Packet handed to the network. [seq], [a]=size bytes,
          [b]=link id of the first hop of the flow's route (0 on a
          dumbbell). *)
  | Ack  (** Packet acknowledged. [seq], [a]=rtt s, [b]=size bytes. *)
  | Loss
      (** Loss notification. [seq], [a]=size bytes, [b]=id of the link
          the packet was lost on (0 on a dumbbell). *)
  | Dup_ack  (** Duplicate ACK delivered. [seq]. *)
  | Mi_boundary
      (** Monitor interval closed. [seq]=MI id, [a]=duration s,
          [b]=packets sent in the MI. *)
  | Rate_decision
      (** Controller consumed an MI result. [seq]=result index,
          [a]=utility, [b]=new base rate (Mbps); [note] names the
          phase. *)
  | Utility_sample
      (** One utility evaluation. [a]=value, [b]=MI send rate (Mbps);
          [note] is the utility function's name. *)
  | Impairment
      (** Link impairment applied. [seq]=id of the impaired link (0 on
          a dumbbell's forward link, 1 on its reverse link), [a]=value
          (Mbps / ms / bytes / mean loss / outage seconds), [b]=1 for
          flushing outages; [note] names the transition (["down"],
          ["up"], ["set-bandwidth"], ...). The link id is in [seq]
          here because [b] holds the flush flag, whereas a
          [Queue_sample] carries it in [b]. Schedule entries are not
          numbered: a link's ["set-*"] and ["down"] events come in its
          schedule's order. *)
  | Queue_sample
      (** Link backlog sample at packet admission. [a]=backlog bytes,
          [b]=sampled link's id (one sample per forward-hop
          admission; link 0 on a dumbbell). *)
  | Audit_violation  (** Invariant violation; [note] is the message. *)

type t

type event = {
  time : float;  (** Simulated seconds. *)
  kind : kind;
  flow : int;  (** Dense flow id, or -1 when not flow-scoped. *)
  seq : int;  (** Packet sequence / MI id / link id, per kind. *)
  a : float;  (** First payload field (see {!kind}). *)
  b : float;  (** Second payload field. *)
  note : string;  (** Interned label; [""] when unused. *)
}

val create : ?capacity:int -> unit -> t
(** Fresh enabled bus retaining the newest [capacity] (default 65536)
    events. Raises [Invalid_argument] on non-positive capacity. *)

val disabled : t
(** The shared inert bus: {!enabled} is [false], emission is a no-op.
    Immutable, so it may be shared freely across domains. *)

val enabled : t -> bool

val emit :
  t ->
  time:float ->
  kind:kind ->
  flow:int ->
  seq:int ->
  a:float ->
  b:float ->
  note:string ->
  unit
(** Publish one event. No-op on a disabled bus — but guard call sites
    with {!enabled} anyway so arguments are not computed. [note] must
    be an interned (preexisting) string on hot paths to keep emission
    allocation-free. *)

val capacity : t -> int

val length : t -> int
(** Events currently buffered (≤ capacity). *)

val total_emitted : t -> int
(** Events emitted since creation or the last {!clear}. *)

val dropped : t -> int
(** Events overwritten by ring wraparound ([total_emitted - length]). *)

val get : t -> int -> event
(** [get t i] is the [i]-th buffered event, oldest first. Raises
    [Invalid_argument] out of bounds. Allocates the view record. *)

val iter : t -> f:(event -> unit) -> unit
(** Iterate buffered events oldest-first. *)

val to_list : t -> event list

val clear : t -> unit
(** Forget all buffered events and reset the counters. *)

val kind_name : kind -> string
(** Stable lowercase label (["send"], ["mi-boundary"], ...). *)
