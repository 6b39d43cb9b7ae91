(** Growable float vector; backing store for packet-scale sample logs
    (millions of RTT samples per run) without list overhead. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty vector with room for [capacity] elements (default 64);
    storage doubles as it fills. *)

val length : t -> int

val push : t -> float -> unit
val get : t -> int -> float

val to_array : t -> float array
(** Fresh array copy of the contents. *)

val iter : (float -> unit) -> t -> unit

val sub_array : t -> pos:int -> len:int -> float array
(** Copy of the slice [pos, pos+len). *)

val last : t -> float option
