(** TCP Reno (NewReno-style AIMD): slow start, +1 MSS per RTT in
    congestion avoidance, halve on loss. The classic baseline every
    later protocol is defined against; useful for sanity comparisons
    and for workloads where CUBIC's aggressiveness is not wanted. *)

type t

val create : Proteus_net.Sender.env -> t
val factory : unit -> Proteus_net.Sender.factory

include Proteus_net.Sender.S with type t := t

val cwnd_packets : t -> float

val srtt : t -> float
(** Smoothed RTT in seconds, for tests. *)
