(** COPA (Arun & Balakrishnan, NSDI 2018): delay-based primary protocol.

    Targets the rate [1 / (delta * dq)] where [dq] is the queueing delay
    measured as standing RTT minus minimum RTT. The window moves toward
    the target by [v / (delta * cwnd)] per ACK, with velocity [v]
    doubling after consistent direction for three RTTs (the paper's
    default mode, [delta = 0.5]; the TCP-competitive mode is out of
    scope — the paper evaluates default COPA). *)

type params = { delta : float }

val default : params
(** [delta = 0.5]. *)

type t

val create : ?params:params -> Proteus_net.Sender.env -> t
val factory : ?params:params -> unit -> Proteus_net.Sender.factory

include Proteus_net.Sender.S with type t := t

val cwnd_packets : t -> float

val srtt : t -> float
(** Smoothed RTT in seconds, for tests. *)

val state_fields : t -> (string * float) list
(** Internal state at full precision, for the golden tests: velocity,
    the standing and minimum RTT filters and the velocity checkpoint. *)
