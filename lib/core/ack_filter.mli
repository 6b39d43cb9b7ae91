(** Per-ACK RTT sample filtering (§5, "Per-ACK: RTT Sample Filtering").

    In bursty environments (irregular WiFi MAC scheduling) ACKs arrive
    compressed: a long gap followed by a burst. The filter detects a
    jump in the ratio of consecutive ACK interarrival intervals and
    then discards RTT samples until one falls below the exponentially
    weighted moving RTT average — i.e. until the channel looks normal
    again. *)

type t

val create : ?ratio_threshold:float -> unit -> t
(** Default threshold 50, the paper's implementation constant. *)

val filter : t -> now:float -> rtt:float -> float option
(** [filter t ~now ~rtt] returns [Some rtt] if the sample should be
    used, [None] if it is filtered out. Must be called for every ACK in
    arrival order. *)

val accept_m : t -> meta:float array -> bool
(** Allocation-free {!filter} in the {!Proteus_net.Sender} call
    protocol: [now] is [meta.(0)] and the sample [meta.(2)]. Returns
    whether the sample is accepted. *)

val is_filtering : t -> bool
(** Whether the filter is currently in the discard state (tests). *)
