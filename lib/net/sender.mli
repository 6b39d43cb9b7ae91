(** The congestion-controller interface.

    Every transport protocol in this repository — the baselines in
    [Proteus_cc], the fold programs lowered by [Proteus.Datapath] and
    the Proteus family in [Proteus] — implements {!S}, one call
    protocol. The scenario {!Runner} drives instances through it:

    - it polls {!S.next_send_m} whenever the flow may transmit;
    - it reports each transmission via {!S.on_sent_m};
    - for every data packet exactly one of {!S.on_ack_m} /
      {!S.on_loss_m} is eventually delivered (per-packet ACKs, loss
      learned one RTT after the drop); duplicate ACKs reach
      {!S.on_ack_m} again.

    The next-send answer is the earliest absolute time the sender is
    willing to transmit, as a raw float on the per-packet hot path: a
    value [<= now] means "transmit immediately", a finite future time
    paces the next transmission, and [infinity] means window-limited —
    the sender is re-polled after the next ACK/loss. It is never NaN. *)

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
  flow : int;
      (** The runner's dense flow index, or -1 outside a runner. Trace
          events the sender publishes carry it in their [flow] field,
          so one trace tells two controllers' decisions apart. *)
}

val make_env :
  ?trace:Proteus_obs.Trace.t ->
  ?hops:int ->
  rng:Proteus_stats.Rng.t ->
  mtu:int ->
  unit ->
  env
(** Convenience constructor for a sender outside a runner: [flow] is
    -1, [trace] defaults to the disabled bus and [hops] to 1. Raises
    [Invalid_argument] when [hops < 1]. *)

(** {2 The call protocol}

    First-class-module calls box every float argument and result, and
    on the per-packet hot path that boxing would be the dominant
    allocator. Every entry point therefore carries its floats in a
    caller-owned scratch array — every access is an unboxed float-array
    read/write:

    - [meta.(0)] — [now] (input to every call)
    - [meta.(1)] — [send_time] (input to [on_ack_m]/[on_loss_m])
    - [meta.(2)] — [rtt] (input to [on_ack_m]): includes queueing,
      twice the propagation delay and any ACK-path noise
    - [meta.(3)] — next-send time (output of [next_send_m]) *)
module type S = sig
  type t

  val name : t -> string
  (** Short protocol label used in reports (e.g. ["cubic"]). *)

  val next_send_m : t -> meta:float array -> unit
  (** Write the earliest absolute time to transmit into [meta.(3)]. *)

  val on_sent_m : t -> meta:float array -> seq:int -> size:int -> unit
  (** The runner transmitted packet [seq] of [size] bytes. *)

  val on_ack_m : t -> meta:float array -> seq:int -> size:int -> unit
  (** Packet [seq] was acknowledged. *)

  val on_loss_m : t -> meta:float array -> seq:int -> size:int -> unit
  (** Packet [seq] was dropped (tail drop or random loss); the
      notification arrives roughly one RTT after the drop. *)
end

module type S_meta = sig
  include S

  val next_send : t -> now:float -> float
  val on_sent : t -> now:float -> seq:int -> size:int -> unit

  val on_ack :
    t -> now:float -> seq:int -> send_time:float -> size:int -> rtt:float -> unit

  val on_loss : t -> now:float -> seq:int -> send_time:float -> size:int -> unit
end
(** {!S} plus float-argument declarations. Exists only for perfbench's
    timing wrapper; a benchmark change deletes it (and {!pack_meta})
    once that wrapper implements {!S} alone. *)

type packed = Packed : (module S with type t = 'a) * 'a -> packed
(** An instantiated sender. *)

val pack : (module S with type t = 'a) -> 'a -> packed

val pack_meta : (module S_meta with type t = 'a) -> 'a -> packed
(** [pack] for an {!S_meta}; exists only for perfbench's timing
    wrapper (see {!S_meta}). *)

val name : packed -> string
val next_send_m : packed -> meta:float array -> unit
val on_sent_m : packed -> meta:float array -> seq:int -> size:int -> unit
val on_ack_m : packed -> meta:float array -> seq:int -> size:int -> unit
val on_loss_m : packed -> meta:float array -> seq:int -> size:int -> unit

(** {2 Float-argument calls}

    For tests and tools, written once over the calls above. Each fills
    a fresh 4-slot [meta] (no runner signals), so they are domain-safe
    and allocate. *)

val next_send : packed -> now:float -> float
val on_sent : packed -> now:float -> seq:int -> size:int -> unit

val on_ack :
  packed -> now:float -> seq:int -> send_time:float -> size:int -> rtt:float -> unit

val on_loss : packed -> now:float -> seq:int -> send_time:float -> size:int -> unit

type factory = env -> packed
(** Protocols are supplied to scenarios as factories so each flow gets
    its own instance and random stream. *)
