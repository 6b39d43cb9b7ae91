(** Per-packet send records keyed by sequence number: a power-of-two
    direct-mapped table holding one float per record.

    Entry [seq land (capacity - 1)] holds [seq]'s tag in an int array
    and its record in a float array, and a lookup checks the tag
    exactly, so a [seq] that was never added, or was taken or removed,
    finds nothing. The table starts at 16 entries and doubles only when
    an add would overwrite another live record (again until the new
    record's entry is free), so it covers the span of live seqs — one
    window — without a per-packet allocation or a binding per record. Records
    move through the caller's float arrays, so no float crosses the
    module boundary. Seqs are any ints but [min_int], the empty tag. *)

type t

val create : unit -> t

val add : t -> int -> float array -> int -> unit
(** [add r seq a i] records [a.(i)] under [seq], replacing [seq]'s
    record if it has one. *)

val take : t -> int -> float array -> int -> bool
(** [take r seq a i] copies [seq]'s record into [a.(i)] and removes it,
    returning [true]; [false] (and [a] untouched) when [seq] has no
    record. *)

val remove : t -> int -> unit
(** Drop [seq]'s record, if any. *)

val mem : t -> int -> bool
val capacity : t -> int
