(** Two-level hierarchical timing wheel: O(1) insert / amortised-O(1)
    extract schedule, and the event kernel's only store for pooled
    cells.

    Entries are [(time, seq, id)] triples — an absolute fire time, the
    kernel's global sequence number (tie-break for equal times) and an
    opaque event-cell id. {!extract} yields ids in exact [(time, seq)]
    order, {e including} entries inserted behind the wheel's cursor
    after it has advanced (they merge into the due batch by sorted
    insertion), so a kernel that assigns [seq] globally can merge the
    wheel with other event sources deterministically.

    The wheel spans [slots] ticks at tick granularity on level 0 and
    [slots²] ticks on level 1; level-1 entries are refiled on cascade
    when the cursor enters their span. Times beyond the level-1 range
    are clamped inward and refiled as the cursor nears them. When level
    0 is empty the cursor jumps to just behind the earliest level-1
    entry, so a far-future entry costs a few cursor moves, not one per
    tick. Steady-state operation allocates nothing. *)

type t

val create : ?tick:float -> ?slots:int -> unit -> t
(** [tick] (default 1e-3 s) is the slot granularity, [slots] (default
    256, a horizon of about 65 s) the per-level slot count, a power of
    two so that slot indices are masks rather than divisions.
    @raise Invalid_argument when [tick <= 0], or [slots] is below 2 or
    not a power of two. *)

val max_time : t -> float
(** Exclusive bound on insert times: [tick * 2^61], about 2.3e15 s at
    the default tick, so tick indices stay clear of integer overflow. *)

val insert : t -> time:float -> seq:int -> id:int -> unit
(** Schedule [id] at absolute [time] with tie-break [seq]. [time] must
    be non-negative and below {!max_time} ({b raises}
    [Invalid_argument] otherwise, NaN included); times behind the cursor fire as soon as possible, in
    correct [(time, seq)] order relative to other due entries. *)

val count : t -> int
(** Entries currently scheduled. *)

val is_empty : t -> bool

val next_time : t -> float
(** Fire time of the earliest entry, or [infinity] when empty. May
    advance the cursor to find it. *)

val prepare : t -> unit
(** Advance the cursor until the due batch is non-empty (no-op when it
    already is, or when the wheel is empty). After [prepare] on a
    non-empty wheel, {!head_time}/{!head_seq} are valid. *)

val head_time : t -> float
(** Unchecked fire time of the earliest entry. Requires a prior
    {!prepare} on a non-empty wheel; the run loop's hot candidate scan
    uses this to avoid re-checking emptiness per peek. *)

val head_seq : t -> int
(** Unchecked sequence number of the earliest entry (same contract as
    {!head_time}). *)

val extract : t -> int
(** Remove and return the earliest entry's id.
    @raise Invalid_argument when empty. *)

(** {2 Counters} — lifetime totals for observability exports. *)

val ticks : t -> int
(** Cursor advances (slot steps, span jumps and jumps to the earliest
    level-1 entry). *)

val cascades : t -> int
(** Level-1 refills: non-empty slot cascades plus jumps that refile
    all of level 1. *)

val max_occupancy : t -> int
(** High-water mark of {!count}. *)
