(** Monitor intervals (MIs).

    PCC senders transmit at a fixed trial rate during each MI and
    associate the rate with the utility observed. An MI is [closed]
    when the controller stops assigning new packets to it, and
    [complete] once every packet sent in it has been acknowledged or
    lost — at which point its {!metrics} are computed (§3 of the
    paper).

    The per-MI calls take their float inputs from float arrays, never
    as arguments, so a controller completes an MI without boxing a
    float at a call boundary. *)

type t

(** All fields are floats, so the record is stored flat and
    {!metrics_into} fills it without allocating. *)
type metrics = {
  mutable send_rate_mbps : float;  (** Achieved sending rate over the MI. *)
  mutable target_rate_mbps : float;
      (** The rate the controller was trialling. *)
  mutable loss_rate : float;  (** Lost / sent. *)
  mutable avg_rtt : float;  (** Mean RTT (seconds) of the accepted samples. *)
  mutable rtt_gradient : float;
      (** Slope of RTT vs. send time (seconds per second) from linear
          regression over the MI's samples. *)
  mutable rtt_deviation : float;  (** Standard deviation of the RTT samples. *)
  mutable regression_error : float;
      (** Residual RMS of the gradient regression divided by the MI
          duration (the paper's per-MI noise-tolerance yardstick). *)
  mutable duration : float;  (** MI length in seconds. *)
}

val zero_metrics : unit -> metrics
(** A fresh record with every field 0, to fill with {!metrics_into}. *)

val create : id:int -> target_rate:float -> start_time:float -> t
(** [target_rate] in bytes/sec. *)

val reset : t -> id:int -> times:float array -> unit
(** Make [t] a fresh interval, as {!create} with [target_rate =
    times.(0)] and [start_time = times.(1)] would, keeping its sample
    storage: the metrics of a reset MI equal those of a created one fed
    the same calls. For controllers that recycle completed MIs. *)

val id : t -> int
val target_rate : t -> float
val start_time : t -> float

val record_sent : t -> size:int -> unit

val record_ack_m : t -> meta:float array -> accepted:bool -> unit
(** An ACK in the {!Proteus_net.Sender} call protocol: [send_time] is
    [meta.(1)] and the RTT sample [meta.(2)], logged when [accepted]
    (and not NaN); a discarded sample still counts the packet for
    completion and loss accounting. *)

val record_loss : t -> unit

val close : t -> times:float array -> unit
(** No further packets will be assigned; the interval ends at
    [times.(2)] (at least 1 µs after its start). *)

val is_closed : t -> bool
val is_complete : t -> bool
(** Closed and every sent packet accounted for. *)

val packets_sent : t -> int

val metrics_into : t -> metrics -> unit
(** Overwrite every field with the metrics of a complete MI. Raises
    [Invalid_argument] if the MI is not complete. MIs with fewer than 2
    RTT samples report zero gradient and deviation. *)

val metrics : t -> metrics
(** {!metrics_into} a fresh record. *)
