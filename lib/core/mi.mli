(** Monitor intervals (MIs).

    PCC senders transmit at a fixed trial rate during each MI and
    associate the rate with the utility observed. An MI is [closed]
    when the controller stops assigning new packets to it, and
    [complete] once every packet sent in it has been acknowledged or
    lost — at which point its {!metrics} are computed (§3 of the
    paper). *)

type t

type metrics = {
  send_rate_mbps : float;  (** Achieved sending rate over the MI. *)
  target_rate_mbps : float;  (** The rate the controller was trialling. *)
  loss_rate : float;  (** Lost / sent. *)
  avg_rtt : float;  (** Mean RTT (seconds) of the accepted samples. *)
  rtt_gradient : float;
      (** Slope of RTT vs. send time (seconds per second) from linear
          regression over the MI's samples. *)
  rtt_deviation : float;  (** Standard deviation of the RTT samples. *)
  regression_error : float;
      (** Residual RMS of the gradient regression divided by the MI
          duration (the paper's per-MI noise-tolerance yardstick). *)
  n_rtt_samples : int;
  duration : float;  (** MI length in seconds. *)
}

val create : id:int -> target_rate:float -> start_time:float -> t
(** [target_rate] in bytes/sec. *)

val reset : t -> id:int -> target_rate:float -> start_time:float -> unit
(** Make [t] a fresh interval, as {!create} with the same arguments
    would, keeping its sample storage: the metrics of a reset MI equal
    those of a created one fed the same calls. For controllers that
    recycle completed MIs. *)

val id : t -> int
val target_rate : t -> float
val start_time : t -> float

val record_sent : t -> size:int -> unit
val record_ack : t -> send_time:float -> rtt:float option -> unit
(** [rtt = None] when the per-ACK noise filter discarded the sample:
    the packet still counts for completion and loss accounting. *)

val record_ack_m : t -> meta:float array -> accepted:bool -> unit
(** Allocation-free {!record_ack} in the {!Proteus_net.Sender} call
    protocol: [send_time] is [meta.(1)] and the RTT sample [meta.(2)],
    logged when [accepted] (and not NaN). *)

val record_loss : t -> unit

val close : t -> end_time:float -> unit
(** No further packets will be assigned. *)

val is_closed : t -> bool
val is_complete : t -> bool
(** Closed and every sent packet accounted for. *)

val packets_sent : t -> int

val metrics : t -> metrics
(** Metrics of a complete MI. Raises [Invalid_argument] if the MI is
    not complete. MIs with fewer than 2 RTT samples report zero
    gradient and deviation. *)
