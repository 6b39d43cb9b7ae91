(** The congestion-controller interface.

    Every transport protocol in this repository — the baselines in
    [Proteus_cc] and the Proteus family in [Proteus] — implements
    {!S}. The scenario {!Runner} drives instances through this
    interface:

    - it polls {!S.next_send} whenever the flow may transmit;
    - it reports each transmission via {!S.on_sent};
    - for every data packet exactly one of {!S.on_ack} / {!S.on_loss}
      is eventually delivered (per-packet ACKs, loss learned one RTT
      after the drop).

    {!S.next_send} answers with the earliest absolute time the sender
    is willing to transmit, as a raw float on the per-packet hot path:
    a value [<= now] means "transmit immediately", a finite future time
    paces the next transmission, and [infinity] means window-limited —
    the sender is re-polled after the next ACK/loss. (This replaces an
    earlier [`Now | `At t | `Blocked] variant; the float encoding is
    allocation-free.) *)

type env = {
  rng : Proteus_stats.Rng.t;  (** Private random stream for the sender. *)
  mtu : int;  (** Packet payload size in bytes. *)
  trace : Proteus_obs.Trace.t;
      (** Observability bus the sender may publish decision events to
          (MI boundaries, rate decisions, utility samples). Defaults to
          {!Proteus_obs.Trace.disabled}; senders must guard emission
          with {!Proteus_obs.Trace.enabled}. *)
  hops : int;
      (** Forward-path hop count of the flow's route (1 on a
          dumbbell). Informational: lets a controller scale priors such
          as initial RTT estimates to the path length. *)
}

val make_env :
  ?trace:Proteus_obs.Trace.t ->
  ?hops:int ->
  rng:Proteus_stats.Rng.t ->
  mtu:int ->
  unit ->
  env
(** Convenience constructor defaulting [trace] to the disabled bus and
    [hops] to 1. Raises [Invalid_argument] when [hops < 1]. *)

module type S = sig
  type t

  val name : t -> string
  (** Short protocol label used in reports (e.g. ["cubic"]). *)

  val next_send : t -> now:float -> float
  (** Earliest absolute time to transmit: [<= now] transmits
      immediately, a future time paces, [infinity] blocks until the
      next ACK/loss. Must never be NaN. *)

  val on_sent : t -> now:float -> seq:int -> size:int -> unit
  (** The runner transmitted packet [seq] of [size] bytes. *)

  val on_ack :
    t -> now:float -> seq:int -> send_time:float -> size:int -> rtt:float -> unit
  (** Packet [seq] was acknowledged; [rtt] includes queueing, twice the
      propagation delay and any ACK-path noise. *)

  val on_loss : t -> now:float -> seq:int -> send_time:float -> size:int -> unit
  (** Packet [seq] was dropped (tail drop or random loss); the
      notification arrives roughly one RTT after the drop. *)
end

(** {2 Unboxed call protocol}

    First-class-module calls box every float argument and result, and
    on the per-packet hot path that boxing is the dominant allocator.
    The [_m] entry points carry floats in a caller-owned scratch array
    instead — every access is an unboxed float-array read/write:

    - [meta.(0)] — [now] (input to every call)
    - [meta.(1)] — [send_time] (input to [on_ack_m]/[on_loss_m])
    - [meta.(2)] — [rtt] (input to [on_ack_m])
    - [meta.(3)] — next-send time (output of [next_send_m])
    - [meta.(4)] — in-flight packets (optional runner-supplied signal:
      ring occupancy after this event's slot released)
    - [meta.(5)] — delivered bytes (optional runner-supplied signal:
      receiver-side goodput before this event, duplicates excluded)

    Slots 4 and 5 are present only when the caller supplies them (the
    [Runner] does); senders reading them must guard on
    [Array.length meta] and fall back to their own estimates — see
    [Proteus.Datapath] for the one consumer.

    Controllers on the hot path implement {!S_meta} natively and
    register through {!pack_meta}; {!pack} derives the [_m] functions
    from the boxed ones, so ordinary {!S} implementations need no
    change (and pay exactly the old boxing cost). Both forms of a
    packed sender must agree: [next_send_m] must write what
    [next_send] would return, etc. *)
module type S_meta = sig
  include S

  val next_send_m : t -> meta:float array -> unit
  val on_sent_m : t -> meta:float array -> seq:int -> size:int -> unit
  val on_ack_m : t -> meta:float array -> seq:int -> size:int -> unit
  val on_loss_m : t -> meta:float array -> seq:int -> size:int -> unit
end

module Meta_of (M : S) : sig
  val next_send_m : M.t -> meta:float array -> unit
  val on_sent_m : M.t -> meta:float array -> seq:int -> size:int -> unit
  val on_ack_m : M.t -> meta:float array -> seq:int -> size:int -> unit
  val on_loss_m : M.t -> meta:float array -> seq:int -> size:int -> unit
end
(** Derive the unboxed entry points from boxed ones (what {!pack}
    uses); exposed so native [S_meta] implementations can reuse it for
    the paths they don't specialize. *)

type packed = Packed : (module S_meta with type t = 'a) * 'a -> packed
(** An instantiated sender. *)

val pack : (module S with type t = 'a) -> 'a -> packed
val pack_meta : (module S_meta with type t = 'a) -> 'a -> packed
val name : packed -> string
val next_send : packed -> now:float -> float
val on_sent : packed -> now:float -> seq:int -> size:int -> unit

val on_ack :
  packed -> now:float -> seq:int -> send_time:float -> size:int -> rtt:float -> unit

val on_loss : packed -> now:float -> seq:int -> send_time:float -> size:int -> unit

val next_send_m : packed -> meta:float array -> unit
val on_sent_m : packed -> meta:float array -> seq:int -> size:int -> unit
val on_ack_m : packed -> meta:float array -> seq:int -> size:int -> unit
val on_loss_m : packed -> meta:float array -> seq:int -> size:int -> unit

type factory = env -> packed
(** Protocols are supplied to scenarios as factories so each flow gets
    its own instance and random stream. *)
