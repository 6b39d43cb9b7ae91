(** Windowed extremum filter (monotonic deque): the running minimum or
    maximum of the samples observed in the trailing time window.
    Used for BBR's bottleneck-bandwidth max filter and RTprop min
    filter, and COPA's RTT estimators. O(1) amortized per update.

    The [_from]/[_into] calls move their floats through a caller's
    float array, so a per-ACK caller passes no float across the module
    boundary (where it would be boxed unless the call is inlined). *)

type t

val create_min : window:float -> t
val create_max : window:float -> t

val update : t -> now:float -> float -> unit
(** Fold in a sample stamped [now]. Timestamps must be nondecreasing.
    A sample older than [now - window] leaves the filter at this
    update for good, even if the window later grows. *)

val update_from : t -> float array -> time:int -> value:int -> unit
(** [update_from t a ~time ~value] is [update t ~now:a.(time) a.(value)]. *)

val get : t -> float option
(** Current windowed extremum, [None] before any sample. Samples older
    than [now - window] at the last update are excluded. *)

val get_into : t -> float array -> int -> unit
(** [get_into t a i] writes the current extremum into [a.(i)], or
    [Float.nan] before any sample. The extremum only
    changes at an update, so a value written right after each update
    stays current until the next. *)

val get_exn : t -> float

val set_window : t -> float -> unit
(** Change the window length (takes effect on the next update). *)

val set_window_from : t -> float array -> int -> unit
(** [set_window_from t a i] is [set_window t a.(i)]. *)
