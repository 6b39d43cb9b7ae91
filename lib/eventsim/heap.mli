(** Binary min-heap of [(time, seq, id)] triples: the event kernel's
    one store for pooled cells.

    Entries are an absolute fire time, the kernel's global sequence
    number (the tie-break for equal times) and an opaque event-cell id.
    {!extract} yields ids in exact [(time, seq)] order, so a kernel that
    assigns [seq] globally can merge the heap with other event sources
    deterministically. The entries live in three parallel arrays
    (float times, int seqs, int ids) that grow by doubling and are then
    reused: steady-state insert and extract allocate nothing, and store
    no pointer. *)

type t

val create : unit -> t
(** An empty heap. Its arrays are allocated on the first insert. *)

val is_empty : t -> bool

val insert : t -> time:float -> seq:int -> id:int -> unit
(** Add [id] at [time] with tie-break [seq]. O(log n). The caller
    checks [time]: the heap orders NaN nowhere in particular. Inlined,
    so an unboxed [time] stays unboxed. *)

val top_time : t -> float
(** Fire time of the earliest entry. Unchecked: requires a non-empty
    heap. *)

val top_seq : t -> int
(** Sequence number of the earliest entry. Unchecked, as {!top_time}. *)

val extract : t -> int
(** Remove the earliest entry and return its id. O(log n).
    @raise Invalid_argument when empty. *)
