(** Per-flow measurement record collected by the {!Runner}.

    Every ACK is logged as its arrival time and RTT sample (16 bytes);
    its size is taken to be {!Units.mtu} unless it was recorded with
    another size, which a sparse side table keeps. ACKs are appended in
    simulation-time order, so windowed queries use binary search over
    the log's timestamps. *)

type t

val create : unit -> t

val clear : t -> unit
(** Forget every count and sample, as a fresh {!create}, keeping the
    log's storage: for measurement loops that reuse records. *)

(** {2 Recording (used by the runner)} *)

val record_sent : t -> now:float -> size:int -> unit
val record_ack : t -> now:float -> size:int -> rtt:float -> unit

val record_loss : ?hop:int -> t -> size:int -> unit
(** [hop] (default 0) is the id of the link the packet was lost on, for
    per-hop drop attribution in multi-hop topologies. Raises
    [Invalid_argument] on a negative hop. *)

val record_dup_ack : t -> unit
(** A duplicate ACK delivery (link duplication knob); duplicates do not
    count toward goodput or completion. *)

(** {2 Queries} *)

val packets_sent : t -> int
val packets_acked : t -> int
val packets_lost : t -> int

val packets_lost_at : t -> hop:int -> int
(** Losses attributed to link id [hop] (0 for a hop never lost on). *)

val losses_by_hop : t -> int array
(** Per-link loss counts indexed by link id, trailing zeros trimmed;
    sums to {!packets_lost}. A dumbbell attributes every loss to link
    0. *)

val packets_dup_acked : t -> int
(** Duplicate ACK deliveries observed (0 unless the link's duplication
    knob is on). *)

val bytes_acked : t -> float
val loss_fraction : t -> float
(** Lost / sent over the whole run (0 when nothing sent). *)

val bytes_acked_window : t -> t0:float -> t1:float -> float
(** Bytes whose ACK arrived in [\[t0,t1)]. Raises [Invalid_argument] on
    an empty window. *)

val throughput_mbps : t -> t0:float -> t1:float -> float
(** Goodput over the window: bytes whose ACK arrived in [\[t0,t1)],
    divided by the window length. *)

val rtt_samples : t -> t0:float -> t1:float -> float array
(** RTT samples (seconds) whose ACKs arrived within the window. Raises
    [Invalid_argument] on an inverted window ([t1 < t0]) that holds an
    ACK in [\[t1,t0)]. *)

val rtt_percentile : t -> t0:float -> t1:float -> p:float -> float option
(** Percentile of windowed RTT samples; [None] when no samples. *)

val throughput_series : t -> bin:float -> until:float -> (float * float) array
(** [(bin_start_time, mbps)] series of goodput binned at [bin]-second
    granularity from time 0 to [until]. Raises [Invalid_argument]
    unless [bin] is positive and finite. *)

val first_ack_time : t -> float option
val last_ack_time : t -> float option
